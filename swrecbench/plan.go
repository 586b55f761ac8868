package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// rng is a splitmix64 stream. The benchmark keeps its own generator so
// that a change to internal/datagen or math/rand cannot move a plan.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, purpose).
func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniform permutation of [0, n).
func (r *rng) perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws ranks in [0, n) with P(rank r) ∝ (r+1)^-s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += math.Pow(float64(i+1), -s)
		z.cum[i] = total
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	x := r.float() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, x)
}

// opKind names one request type of a plan.
type opKind uint8

const (
	opRec opKind = iota
	opNeighbors
	opProfile
	opAgent
	opAgents
	opProduct
	opTopic
	opStats
	opRate  // POST /v1/agents/{a}/ratings
	opTrust // POST /v1/agents/{a}/trust
	opJoin  // POST /v1/agents
	numOps
)

var opNames = [numOps]string{"recommendations", "neighbors", "profile", "agent", "agents",
	"product", "topic", "stats", "write_rating", "write_trust", "write_join"}

func (k opKind) String() string { return opNames[k] }
func (k opKind) write() bool    { return k >= opRate }

// op is one planned request. Agents, products and topics are indexes
// into the community's own (deterministic) listings.
type op struct {
	kind  opKind
	agent int32
	arg   int32 // product, peer, topic, page offset or join number
	val   float64
	at    time.Duration // open loop: due time after the start of the phase
}

// plan is a seeded request sequence and its fingerprint.
type plan struct {
	ops []op
	fp  string
}

func newPlan(ops []op) plan {
	h := sha256.New()
	var b [32]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint32(b[1:], uint32(o.agent))
		binary.LittleEndian.PutUint32(b[5:], uint32(o.arg))
		binary.LittleEndian.PutUint64(b[9:], math.Float64bits(o.val))
		binary.LittleEndian.PutUint64(b[17:], uint64(o.at))
		h.Write(b[:25])
	}
	return plan{ops: ops, fp: hex.EncodeToString(h.Sum(nil))[:16]}
}

// mix picks an index by weight.
type mix []float64

func (m mix) pick(u float64) int {
	total := 0.0
	for _, w := range m {
		total += w
	}
	x := u * total
	for i, w := range m {
		if x < w {
			return i
		}
		x -= w
	}
	return len(m) - 1
}

// stratified returns a seeded order of all agents in which those with a
// single rating — about one in five of them falls past full synthesis
// to a ladder rung costing ten to twenty times as much — are spread
// evenly at their share of the community: the first i agents hold
// ⌊i·nf/total⌋ of the nf. So every cold run's tail, and every active
// set, holds that share instead of a seed-dependent handful.
func stratified(r *rng, single []bool) []int32 {
	var few, rest []int32
	for _, a := range r.perm(len(single)) {
		if single[a] {
			few = append(few, a)
		} else {
			rest = append(rest, a)
		}
	}
	total, nf := len(single), len(few)
	out := make([]int32, 0, total)
	for i := 0; i < total; i++ {
		if (i+1)*nf/total > i*nf/total {
			out, few = append(out, few[0]), few[1:]
		} else {
			out, rest = append(out, rest[0]), rest[1:]
		}
	}
	return out
}

// coldPlan serves n agents once each, in a stratified seeded order:
// 92% of the requests are /recommendations?n=10, the rest /neighbors.
func coldPlan(seed int64, single []bool, n int) plan {
	r := newRNG(seed, "cold")
	order := stratified(r, single)
	ops := make([]op, 0, min(n, len(order)))
	for _, a := range order[:min(n, len(order))] {
		k := opRec
		if r.float() < 0.08 {
			k = opNeighbors
		}
		ops = append(ops, op{kind: k, agent: a})
	}
	return newPlan(ops)
}

// hotReadMix weights the eight read endpoints of the warm workload.
var hotReadMix = mix{
	opRec: 0.30, opNeighbors: 0.15, opProfile: 0.15, opAgent: 0.10,
	opAgents: 0.05, opProduct: 0.10, opTopic: 0.10, opStats: 0.05,
}

// hotPlan draws length reads over all eight read endpoints, with Zipf
// (s = 1.05) popularity over agents and products; which agent is
// popular is itself seeded.
func hotPlan(seed int64, agents, products, topics, length int) plan {
	r := newRNG(seed, "hot")
	agentRank := r.perm(agents)
	productRank := r.perm(products)
	za, zp := newZipf(agents, 1.05), newZipf(products, 1.05)
	ops := make([]op, length)
	for i := range ops {
		o := op{kind: opKind(hotReadMix.pick(r.float())), agent: agentRank[za.draw(r)]}
		switch o.kind {
		case opProduct:
			o.arg = productRank[zp.draw(r)]
		case opTopic:
			o.arg = int32(r.intn(topics))
		case opAgents:
			o.arg = int32(r.intn(agents/25+1) * 25)
		}
		ops[i] = o
	}
	return newPlan(ops)
}

// churnReadMix and churnWriteMix shape the read-beside-write workload.
var (
	churnReadMix  = mix{opRec: 0.50, opNeighbors: 0.25, opProfile: 0.25}
	churnWriteMix = mix{opRate - opRate: 0.60, opTrust - opRate: 0.35, opJoin - opRate: 0.05}
)

// openPlan schedules events at a fixed rate for the given duration. A
// writeShare of the events are writes by the active set; the rest are
// reads of the active set. Writes are always valid: ratings of
// cataloged products, trust in another existing agent, joins of fresh
// agents.
func openPlan(seed int64, stream string, active []int32, agents, products int, rate float64, d time.Duration, writeShare float64) plan {
	r := newRNG(seed, stream)
	n := int(rate * d.Seconds())
	step := time.Duration(float64(time.Second) / rate)
	ops := make([]op, n)
	joins := int32(0)
	for i := range ops {
		o := op{at: time.Duration(i) * step, agent: active[r.intn(len(active))]}
		if r.float() < writeShare {
			o.kind = opRate + opKind(churnWriteMix.pick(r.float()))
			switch o.kind {
			case opRate:
				o.arg = int32(r.intn(products))
				o.val = math.Round((r.float()*2-1)*100) / 100
			case opTrust:
				o.arg = int32(r.intn(agents - 1))
				if o.arg >= o.agent {
					o.arg++ // never the agent itself
				}
				o.val = math.Round((0.1+0.9*r.float())*100) / 100
				if r.float() < 0.1 {
					o.val = -o.val
				}
			case opJoin:
				o.arg = joins
				joins++
			}
		} else {
			o.kind = opKind(churnReadMix.pick(r.float()))
		}
		ops[i] = o
	}
	return newPlan(ops)
}

// sample picks k distinct values of [0, n) for a seeded stream.
func sample(seed int64, stream string, n, k int) []int32 {
	if k > n {
		k = n
	}
	return newRNG(seed, stream).perm(n)[:k]
}
