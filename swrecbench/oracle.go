package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"swrec/internal/core"
	"swrec/internal/ingest"
	"swrec/internal/model"
)

// answer is the part of a /recommendations body the oracle compares.
type answer struct {
	Items []struct {
		Product    string
		Score      float64
		Supporters int
	} `json:"items"`
	Strategy struct {
		Procedure string `json:"procedure"`
		Epoch     uint64 `json:"epoch"`
	} `json:"strategy"`
}

func decodeAnswer(body []byte) (answer, error) {
	var a answer
	err := json.Unmarshal(body, &a)
	return a, err
}

// sameItems compares two answers' ranked lists exactly.
func sameItems(a, b answer) bool {
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// matches compares a served answer with the from-scratch pipeline's.
func matches(a answer, want []core.Recommendation) bool {
	if len(a.Items) != len(want) {
		return false
	}
	for i, w := range want {
		it := a.Items[i]
		if it.Product != string(w.Product) || it.Score != w.Score || it.Supporters != w.Supporters {
			return false
		}
	}
	return true
}

// history rebuilds the community of any epoch from scratch: the
// generated corpus plus the writes the benchmark saw acknowledged, in
// WAL order up to the epoch's last applied sequence. The oracle thus
// never trusts the engine's own view of an epoch.
type history struct {
	base    *model.Community
	muts    []seqMut // sorted by seq
	work    *model.Community
	applied int // muts already folded into work
}

func newHistory(base *model.Community, muts []seqMut) *history {
	ms := append([]seqMut(nil), muts...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].seq < ms[j].seq })
	return &history{base: base, muts: ms}
}

// at returns the community after every write with seq <= seq. Calls
// must not go back in sequence.
func (h *history) at(seq uint64) (*model.Community, error) {
	if h.work == nil {
		h.work = h.base.Clone()
	}
	if h.applied < len(h.muts) && h.muts[h.applied].seq <= seq {
		for h.applied < len(h.muts) && h.muts[h.applied].seq <= seq {
			if err := ingest.Apply(h.work, h.muts[h.applied].m); err != nil {
				return nil, fmt.Errorf("oracle: apply write %d: %w", h.muts[h.applied].seq, err)
			}
			h.applied++
		}
	}
	return h.work.Clone(), nil
}

// last is the highest acknowledged sequence.
func (h *history) last() uint64 {
	if len(h.muts) == 0 {
		return 0
	}
	return h.muts[len(h.muts)-1].seq
}

// oracleReport counts what the oracle saw.
type oracleReport struct {
	checked    int // answers compared with a from-scratch computation or with an identical earlier answer
	skipped    int // answers from another strategy rung than full synthesis
	mismatches int
	notes      []string
}

func (r *oracleReport) miss(format string, args ...any) {
	r.mismatches++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// checkKept checks every kept /recommendations answer. Answers of one
// agent in one epoch must be identical; a full-synthesis answer must
// equal core.New(comm, opt).Recommend(id, 10) over that epoch's
// community, rebuilt from the history. epochSeq maps every epoch the
// phase saw to the last sequence it applied.
func checkKept(c *corpus, h *history, epochSeq map[uint64]uint64, ks []kept, rep *oracleReport) {
	type first struct {
		body []byte
		sum  uint64
	}
	firsts := map[keptKey]first{}
	var order []keptKey
	for _, k := range ks {
		if k.body == nil {
			continue
		}
		a, err := decodeAnswer(k.body)
		if err != nil {
			rep.miss("agent %d: undecodable answer: %v", k.o.agent, err)
			continue
		}
		g := keptKey{k.o.agent, a.Strategy.Epoch}
		if g.epoch != k.epochs[0] && g.epoch != k.epochs[1] {
			rep.miss("agent %d: answer epoch %d not current around the request (%v)", k.o.agent, g.epoch, k.epochs)
			continue
		}
		if f, ok := firsts[g]; ok {
			rep.checked++
			if f.sum != k.sum {
				rep.miss("agent %d epoch %d: answers differ within one epoch", k.o.agent, g.epoch)
			}
			continue
		}
		firsts[g] = first{body: k.body, sum: k.sum}
		order = append(order, g)
	}
	for _, k := range ks {
		if k.body != nil {
			continue
		}
		rep.checked++
		if f, ok := firsts[keptKey{k.o.agent, k.epochs[0]}]; !ok || f.sum != k.sum {
			rep.miss("agent %d epoch %d: answers differ within one epoch", k.o.agent, k.epochs[0])
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].epoch != order[j].epoch {
			return order[i].epoch < order[j].epoch
		}
		return order[i].agent < order[j].agent
	})
	var rec *core.Recommender
	var recEpoch uint64
	for _, g := range order {
		a, _ := decodeAnswer(firsts[g].body)
		if a.Strategy.Procedure != "full-synthesis" {
			rep.skipped++
			continue
		}
		if rec == nil || recEpoch != g.epoch {
			seq, ok := epochSeq[g.epoch]
			if !ok {
				rep.miss("agent %d: epoch %d was never observed, so its state cannot be rebuilt", g.agent, g.epoch)
				continue
			}
			comm, err := h.at(seq)
			if err == nil {
				rec, err = core.New(comm, servingOptions())
			}
			if err != nil {
				rep.miss("oracle: %v", err)
				return
			}
			recEpoch = g.epoch
		}
		w, err := rec.Recommend(c.agents[g.agent], 10)
		if err != nil {
			rep.miss("agent %d: oracle: %v", g.agent, err)
			continue
		}
		rep.checked++
		if !matches(a, w) {
			rep.miss("agent %d epoch %d: served answer differs from core.New(...).Recommend", g.agent, g.epoch)
		}
	}
}

// probeAnswers asks the server for each agent's recommendations outside
// any timed phase.
func probeAnswers(ctx context.Context, h http.Handler, c *corpus, seed int64, agents []int32) (map[int32]answer, error) {
	out := map[int32]answer{}
	rec := newRecorder()
	for _, a := range agents {
		serve(h, rec, c.request(op{kind: opRec, agent: a}, seed).WithContext(ctx))
		if rec.status != http.StatusOK {
			return nil, fmt.Errorf("probe agent %d: status %d", a, rec.status)
		}
		ans, err := decodeAnswer(rec.body.Bytes())
		if err != nil {
			return nil, fmt.Errorf("probe agent %d: %w", a, err)
		}
		out[a] = ans
	}
	return out, nil
}
