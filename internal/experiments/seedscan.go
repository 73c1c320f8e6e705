package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// The seed scan's fixed parameters: how many generator seeds each size
// class tries (the class's own seed, then steps of seedScanStep), the
// baseline time at which a seed counts as challenging, and the
// baseline itself (the paper's muldirect without symmetry breaking),
// the only strategy whose time selects a seed.
const (
	seedScanSeeds    = 12
	seedScanStep     = 1000
	seedScanMinHard  = 2 * time.Second
	seedScanBaseline = "muldirect"
)

// seedScanFast are the two fast strategies that race to measure chi
// and are timed for reference.
var seedScanFast = []string{"ITE-log/s1", "ITE-linear-2+muldirect/s1"}

// SeedScanConfig controls the seed scan, which searches generator seeds
// for "challenging unroutable configurations" in the sense of the
// paper's Table 2: instances whose W-1 unroutability proof is expensive
// for the baseline encoding. The selected seeds are baked into package
// mcnc; this study documents and reproduces that selection.
type SeedScanConfig struct {
	Instances []mcnc.Instance // size classes; defaults to mcnc.Table2Instances()
	Timeout   time.Duration   // per width probe and per timed solve (0 = none)
	Progress  io.Writer
	// Pool, when non-nil, supplies reusable solvers for the timed
	// solves; nil measures on fresh solvers.
	Pool *sat.Pool
}

// SeedRow is one regenerated (class, seed) configuration.
type SeedRow struct {
	Class string
	Seed  int64
	V, E  int
	Chi   search.ChiResult
	// Baseline and Fast time width Chi-1, in the order of
	// seedScanBaseline and seedScanFast; they are zero when chi was
	// not proved.
	Baseline Timing
	Fast     []Timing
}

// Challenging reports whether the baseline timed out or took at least
// seedScanMinHard — the paper's notion of a challenging configuration.
// Only the baseline decides, never the new encodings.
func (r SeedRow) Challenging() bool {
	return r.Chi.Proved && (r.Baseline.Status == sat.Unknown || r.Baseline.Total() >= seedScanMinHard)
}

// SeedScanResult lists the scanned seeds class by class.
type SeedScanResult struct {
	Rows []SeedRow
}

// RunSeedScan scans seedScanSeeds seeds of every size class.
func RunSeedScan(cfg SeedScanConfig) (*SeedScanResult, error) {
	if cfg.Instances == nil {
		cfg.Instances = mcnc.Table2Instances()
	}
	res := &SeedScanResult{}
	for _, in := range cfg.Instances {
		for s := 0; s < seedScanSeeds; s++ {
			row, err := ScanSeed(in, in.Gen.Seed+int64(seedScanStep*s), cfg.Timeout, cfg.Pool)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-10s seed %-6d chi=%d baseline %8.2fs %s\n",
					in.Name, row.Seed, row.Chi.Chi, row.Baseline.Total().Seconds(), row.Baseline.Status)
			}
		}
	}
	return res, nil
}

// ScanSeed regenerates class in with the given generator seed, measures
// the conflict graph's chi with the two fast strategies racing in the
// incremental width search, and times the baseline and both fast
// strategies on the unroutable width chi-1.
func ScanSeed(in mcnc.Instance, seed int64, timeout time.Duration, pool *sat.Pool) (SeedRow, error) {
	in.Gen.Seed = seed
	_, g, err := in.Build()
	if err != nil {
		return SeedRow{}, err
	}
	fast := make([]core.Strategy, len(seedScanFast))
	for i, name := range seedScanFast {
		if fast[i], err = core.ParseStrategy(name); err != nil {
			return SeedRow{}, err
		}
	}
	baseline, err := core.ParseStrategy(seedScanBaseline)
	if err != nil {
		return SeedRow{}, err
	}
	row := SeedRow{Class: in.Name, Seed: seed, V: g.N(), E: g.M()}
	row.Chi, err = search.FindChi(context.Background(), g, fast, timeout, nil)
	if err != nil {
		return SeedRow{}, fmt.Errorf("experiments: scanning %s seed %d: %w", in.Name, seed, err)
	}
	if !row.Chi.Proved {
		return row, nil
	}
	row.Baseline = RunStrategy(g, row.Chi.Chi-1, baseline, sat.Options{}, 0, timeout, pool)
	for _, s := range fast {
		row.Fast = append(row.Fast, RunStrategy(g, row.Chi.Chi-1, s, sat.Options{}, 0, timeout, pool))
	}
	return row, nil
}

// Markdown renders the scan; a challenging seed is marked with *.
func (r *SeedScanResult) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Seed scan — time [s] to prove W=chi-1 unroutable; * marks a seed whose %s baseline times out or takes at least %v\n\n",
		seedScanBaseline, seedScanMinHard)
	header := append([]string{"Class", "Seed", "V", "E", "clq", "chi", seedScanBaseline}, seedScanFast...)
	header = append(header, "challenging")
	var rows [][]string
	for _, s := range r.Rows {
		row := []string{s.Class, strconv.FormatInt(s.Seed, 10), strconv.Itoa(s.V), strconv.Itoa(s.E),
			strconv.Itoa(s.Chi.LowerBound)}
		if !s.Chi.Proved {
			row = append(row, "? (timeout)")
			for len(row) < len(header) {
				row = append(row, "")
			}
		} else {
			row = append(row, strconv.Itoa(s.Chi.Chi), fmtCell(s.Baseline, Timing.Total))
			for _, t := range s.Fast {
				row = append(row, fmtCell(t, Timing.Total))
			}
			mark := ""
			if s.Challenging() {
				mark = "*"
			}
			row = append(row, mark)
		}
		rows = append(rows, row)
	}
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}
