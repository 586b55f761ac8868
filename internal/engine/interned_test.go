package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
)

// servingFingerprint hashes the complete serving output of a snapshot on
// the seeded differential corpus: for every agent, the ranked peers and
// the top-10 recommendations with full-precision scores. Any behavioral
// drift in trust propagation, similarity, rank synthesis, or the vote
// changes the digest.
func servingFingerprint(t testing.TB, snap *Snapshot) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range snap.Community().Agents() {
		peers, err := snap.RankedPeers(id, Overrides{})
		if err != nil {
			t.Fatalf("RankedPeers(%s): %v", id, err)
		}
		fmt.Fprintf(&sb, "A %s\n", id)
		for _, p := range peers {
			fmt.Fprintf(&sb, "P %s %.12g %.12g %t %.12g\n", p.Agent, p.Trust, p.Sim, p.SimOK, p.Weight)
		}
		recs, err := snap.Recommend(id, 10, Overrides{})
		if err != nil {
			t.Fatalf("Recommend(%s): %v", id, err)
		}
		for _, r := range recs {
			fmt.Fprintf(&sb, "R %s %.12g %d\n", r.Product, r.Score, r.Supporters)
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// preInternFingerprint is the serving fingerprint of the seeded corpus
// (datagen.SmallScale, 120 agents / 240 products, default test options)
// computed by the string-keyed implementation immediately before the
// interned-ID refactor. The differential test below pins the interned
// data model to byte-identical serving output.
const preInternFingerprint = "3976785e17235065ef071ec31b2d94984bc9785eb234cc41e81d13212a57f178"

// TestInternedFingerprintMatchesPreRefactor is the serving output's
// differential gate: rekeying hot-path structures on dense ordinals, or
// collapsing a kernel onto one implementation, must not move a single
// score bit. Every row runs the same corpus and answer sizes; the
// non-default rows were recorded on the tree that still carried the
// generic trust walks and cf's map-vector similarity path, so they pin
// the Product representation and the PathTrust/Advogato metrics across
// that deletion.
func TestInternedFingerprintMatchesPreRefactor(t *testing.T) {
	comm := testCommunity(t, 120, 240)
	for _, tc := range []struct {
		name string
		opt  func(*core.Options)
		want string
	}{
		{"taxonomy-cosine", func(*core.Options) {}, preInternFingerprint},
		{"product-pearson", func(o *core.Options) {
			o.CF = cf.Options{Representation: cf.Product, Measure: cf.Pearson}
		}, "2be9233057abfba423cbbbfba1e49ee1d7e780ba866cb22c4e5a37c1117c5237"},
		{"pathtrust", func(o *core.Options) { o.Metric = core.PathTrust },
			"4cfddddb7b93fb762e3734db33888847c18c9621ebe7f7886df7a90ba615e094"},
		{"advogato", func(o *core.Options) { o.Metric = core.Advogato },
			"4249178a7664e937f5a1d0bb4a78db15a700c15f88e2fefee2b968276c98dbe6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOptions()
			tc.opt(&opt)
			e, err := New(comm, opt, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := servingFingerprint(t, e.Snapshot()); got != tc.want {
				t.Fatalf("serving fingerprint drifted from the recording:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
