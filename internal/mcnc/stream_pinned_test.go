package mcnc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"testing"

	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
)

// streamDigest hashes a clause stream as DIMACS-style text (literals in
// decimal, space-separated, one clause per line) into a single SHA-256.
// The text is buffered and written to the hash in large chunks, so the
// cost stays one hash over the whole stream, not one per clause.
type streamDigest struct {
	h   hash.Hash
	buf []byte
	n   int
}

func newStreamDigest() *streamDigest {
	return &streamDigest{h: sha256.New(), buf: make([]byte, 0, 1<<16)}
}

func (s *streamDigest) AddClause(lits ...int) {
	for _, l := range lits {
		s.buf = strconv.AppendInt(s.buf, int64(l), 10)
		s.buf = append(s.buf, ' ')
	}
	s.buf = append(s.buf, '\n')
	s.n++
	if len(s.buf) >= 1<<15 {
		s.h.Write(s.buf)
		s.buf = s.buf[:0]
	}
}

// sum closes the stream with the encoding's variable count and returns
// the digest.
func (s *streamDigest) sum(numVars int) string {
	s.buf = append(s.buf, fmt.Sprintf("vars %d\n", numVars)...)
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
	return hex.EncodeToString(s.h.Sum(nil))
}

// pinnedRegistryStreams maps "<instance> W=<w> <strategy>" to the
// SHA-256 of the clause stream EncodeInto (or, for the "inc" keys,
// EncodeIncremental) emits for it, followed by the variable count.
var pinnedRegistryStreams = map[string]string{
	"alu2 W=7 direct/s1":                      "8c89728a9f75ccacd1136f259a2b08db3a32b68ce8552373f09f8f788a271b26",
	"alu2 W=6 ITE-linear-2+muldirect/s1":      "c846e665ea113ffad234de39b4d8dcb0e4aa1e56add6e8733e65f7037eb683b1",
	"alu2 W=6 ITE-log/s1":                     "fd796b1bf587552528a0cf0dcd8fa47aff5dbcc76e30996ceb68dc7d6e358c4e",
	"too_large W=7 direct/s1":                 "9ab763c9d3c150b80351f21734146d970845172b7b9fea341242295d93f1b032",
	"too_large W=6 ITE-linear-2+muldirect/s1": "ac76450216ba549e7db27acd8efd216059cbd2cfaba2a1731b129f2be7b691d0",
	"too_large W=6 ITE-log/s1":                "3a3dde2dbcaef31393317cb405783fc84008e303ddaf32de054311c39fc20817",
	"alu4 W=8 direct/s1":                      "5613fea6509ffee1e8e938b19159a13b390a8792503acfd1b5c9b3893315e654",
	"alu4 W=7 ITE-linear-2+muldirect/s1":      "7475de16c7a86a3a178c53621f33fde1937cceab946c337846fa4a7403b767b7",
	"alu4 W=7 ITE-log/s1":                     "805f85964cc4772452ffb208b055077892c61c8943229c7c6fd61ce653afd0eb",
	"C880 W=10 direct/s1":                     "6aed90499624b6039d4ac44362b0268c52c8918aafaab3dea6d7d12963496e88",
	"C880 W=9 ITE-linear-2+muldirect/s1":      "d12d349dcc9e87e1a96e8229ec464afadaaa41196c75d2afd2d518c647cb7606",
	"C880 W=9 ITE-log/s1":                     "4dbb9d686d04fde8d798f283e53ecb58435fb012ff4159b867b9e78cd18d5432",
	"apex7 W=10 direct/s1":                    "f6ed0b5d69a25bd5562a951ddce745fd486f2478bc79a814a7e264905453023d",
	"apex7 W=9 ITE-linear-2+muldirect/s1":     "49f44d57bd6fdb4870f08251bfc64f76f37e171852a85c60f7aeeebeeac2ea00",
	"apex7 W=9 ITE-log/s1":                    "e658b642b2e007311b9d5634164a180e13039f3022aa910b6d3db680d82c6ee2",
	"C1355 W=8 direct/s1":                     "6244f4f98727c92ebf4e5192740e7455c5aa4ffa8f1edef2081f20c293ca08a6",
	"C1355 W=7 ITE-linear-2+muldirect/s1":     "2217f76cd531fa9235c080d99dfe0300580da45fac42ef3980a167c5a43498bf",
	"C1355 W=7 ITE-log/s1":                    "993f28e4dc577816971d0609f9dab75faaf3ca80e8c7ec8b571a0ddd8b403fc6",
	"vda W=9 direct/s1":                       "6100cd7f04b0d3ca012cf68d800173bb19befc307e81c810b6732d3c9f9954e9",
	"vda W=8 ITE-linear-2+muldirect/s1":       "b79a33fbb0fa214ec67488c47a6eff431bfe95509e06c4958b4d8dcbf412a78d",
	"vda W=8 ITE-log/s1":                      "f9951fc89b7a52f71fda974b3b0d26f9f641849cc13559569c664c40cce331db",
	"k2 W=10 direct/s1":                       "2a7ec01cb847a74032707756cc0ff0242793ad8f49fbc3f9e492fc72cdcbecac",
	"k2 W=9 ITE-linear-2+muldirect/s1":        "3a955f5517ef43319d662db0fb55f48762a8cf2e4095f49d1cb7701a9e68fb10",
	"k2 W=9 ITE-log/s1":                       "aa935f12b15bda13ddadd97fb26751936760ee6587a4f96db6f3af7b4fda1e68",
	"tseng W=7 direct/s1":                     "72c1167c2be64ed003ccc0f3dfd61644993e5cf93dece999d9a200398b45f90c",
	"term1 W=4 direct/s1":                     "8bb2c6b63de6b45762af39212ab2614c5de578ee2e584b53baca0420dea348fe",
	"9symml W=6 direct/s1":                    "b1c7a41d39b070cd78b69d25c461f3396c3ae777334bf133c55ad53067a51925",
	"tseng.x2 W=8 order":                      "3a62c523c0c068cb6fbeb30c15dd56aaf5152c5bbce42b1dd943f08e47cf3a9d",
	"term1.x2 W=5 order":                      "9f12676d40fadac65ea64550b389c3aa51eb0b8353508ae8777b7769f70bfd21",
	"9symml.x2 W=7 order":                     "ec0abfc9406a1de075e925f99a268dc54c9278fa48792be0bd5353a728ad0829",
	"term1.x3 W=7 order":                      "deceadd47a753f1be36f1538cb9d9a09ffd7f3eb714f037b8ea0af64acd7db84",
	"alu2.x2 W=8 order":                       "ebdc22890df81b4b09aa1623e395497b0274abef80672517fd06cb05bf1faf00",
	"1x W=[9,10] direct/s1 inc":               "a2a7f980ee6a3d0da97f769e344fb24e3e9647ab41aaf271f6829587cce8698a",
	"10x W=[9,10] direct/s1 inc":              "ae865fe312eec9b8a77ddd66608323525533fc5e3f0b4a57655dcf257bbdaf14",
}

// TestRegistryClauseStreamsPinned holds the encoder to the exact
// formulas of the real workloads: every registry instance at RoutableW
// under its route-flow strategy (direct/s1; order on the crosstalk
// instances), the eight Table-2 instances at W-1 under the paper's
// winner and ITE-log/s1, and the incremental encodes of the 1x and 10x
// scaled fabrics under direct/s1 over [CliqueLB+1, CliqueLB+2]. Any
// change to a clause, to clause order or to the variable count changes
// a digest.
func TestRegistryClauseStreamsPinned(t *testing.T) {
	check := func(key string, d *streamDigest, numVars int) {
		t.Helper()
		got := d.sum(numVars)
		want, ok := pinnedRegistryStreams[key]
		switch {
		case !ok:
			t.Errorf("%q: %q, // not pinned (%d clauses)", key, got, d.n)
		case got != want:
			t.Errorf("%s: clause stream digest %s, pinned %s (%d clauses, %d vars)", key, got, want, d.n, numVars)
		}
	}
	encode := func(key string, g *graph.Graph, w int, spec string) {
		t.Helper()
		s, err := core.ParseStrategy(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := newStreamDigest()
		st := core.EncodeInto(core.BuildCSP(g, w, s.Symmetry), s.Encoding, d)
		check(fmt.Sprintf("%s W=%d %s", key, w, spec), d, st.NumVars)
	}
	for _, in := range Instances() {
		_, g, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		spec := "direct/s1"
		if in.Crosstalk >= 2 {
			spec = "order"
		}
		encode(in.Name, g, in.RoutableW, spec)
		if in.Hard {
			for _, spec := range []string{"ITE-linear-2+muldirect/s1", "ITE-log/s1"} {
				encode(in.Name, g, in.UnroutableW(), spec)
			}
		}
	}
	s, err := core.ParseStrategy("direct/s1")
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []int{1, 10} {
		g, stats, err := fpga.GenerateScaled(fpga.ScaledFabric(factor))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := stats.CliqueLB+1, stats.CliqueLB+2
		d := newStreamDigest()
		inc := core.EncodeIncremental(core.BuildCSP(g, hi, s.Symmetry), s.Encoding, lo, d)
		check(fmt.Sprintf("%dx W=[%d,%d] direct/s1 inc", factor, lo, hi), d, inc.NumVars)
	}
}
