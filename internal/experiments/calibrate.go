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
	"fpgasat/internal/obs"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// The calibration study's strategies: the fast one measures chi and
// times both sides of it, the slow one is the paper's baseline.
const (
	calibrateFast = "ITE-linear-2+muldirect/s1"
	calibrateSlow = "muldirect"
)

// CalibrateConfig controls the calibration study, which produced (and
// re-checks) the RoutableW values baked into package mcnc.
type CalibrateConfig struct {
	Instances []mcnc.Instance // defaults to mcnc.Instances()
	// Timeout bounds each width probe of the search and each timed
	// solve (0 = none).
	Timeout  time.Duration
	Progress io.Writer
	// Obs, when non-nil, receives the search.minwidth.* telemetry of
	// the width searches.
	Obs *obs.Registry
	// Pool, when non-nil, supplies reusable solvers for the timed
	// solves; nil measures on fresh solvers.
	Pool *sat.Pool
}

// CalibrateRow is one instance's measured chromatic number and the
// indicative single-shot solve times around it.
type CalibrateRow struct {
	Instance  string
	V, E      int
	RoutableW int // the registry's value
	Chi       search.ChiResult
	// UnsatFast and UnsatSlow solve width Chi-1 with the fast and the
	// slow strategy, SatFast solves width Chi with the fast one.
	UnsatFast, UnsatSlow, SatFast Timing
}

// CalibrateResult is the calibration table.
type CalibrateResult struct {
	Rows []CalibrateRow
}

// RunCalibrate measures every instance's chromatic number with the
// incremental width search (search.FindChi: one encode at the DSATUR
// upper bound, one assumption probe per width), then times fresh
// single-shot solves on both sides of it, since those measure a
// strategy's cost on one decision problem. Every instance is measured;
// the result comes back together with an error naming each instance
// whose measured chi differs from its RoutableW.
func RunCalibrate(cfg CalibrateConfig) (*CalibrateResult, error) {
	if cfg.Instances == nil {
		cfg.Instances = mcnc.Instances()
	}
	fast, err := core.ParseStrategy(calibrateFast)
	if err != nil {
		return nil, err
	}
	slow, err := core.ParseStrategy(calibrateSlow)
	if err != nil {
		return nil, err
	}
	res := &CalibrateResult{}
	var mismatches []string
	for _, in := range cfg.Instances {
		g, _, err := BuildInstance(in)
		if err != nil {
			return nil, err
		}
		chi, err := search.FindChi(context.Background(), g, []core.Strategy{fast}, cfg.Timeout, cfg.Obs)
		if err != nil {
			return nil, fmt.Errorf("experiments: calibrating %s: %w", in.Name, err)
		}
		row := CalibrateRow{
			Instance: in.Name, V: g.N(), E: g.M(), RoutableW: in.RoutableW, Chi: chi,
			UnsatFast: RunStrategy(g, chi.Chi-1, fast, sat.Options{}, 0, cfg.Timeout, cfg.Pool),
			UnsatSlow: RunStrategy(g, chi.Chi-1, slow, sat.Options{}, 0, cfg.Timeout, cfg.Pool),
			SatFast:   RunStrategy(g, chi.Chi, fast, sat.Options{}, 0, cfg.Timeout, cfg.Pool),
		}
		res.Rows = append(res.Rows, row)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-10s chi=%d (proved %v, %d probes) registry W=%d\n",
				in.Name, chi.Chi, chi.Proved, chi.Probes, in.RoutableW)
		}
		if chi.Chi != in.RoutableW {
			mismatches = append(mismatches, fmt.Sprintf("%s (RoutableW=%d, chi=%d)", in.Name, in.RoutableW, chi.Chi))
		}
	}
	if len(mismatches) > 0 {
		return res, fmt.Errorf("experiments: measured chi differs from the registry's RoutableW on %s",
			strings.Join(mismatches, ", "))
	}
	return res, nil
}

// Markdown renders the calibration table. A chi the search could not
// prove is shown as an upper bound; a timing cell whose answer
// contradicts the measured chi carries that answer.
func (r *CalibrateResult) Markdown() string {
	var sb strings.Builder
	sb.WriteString("### Calibration — measured chi against the registry's RoutableW, single-shot solve times [s]\n\n")
	header := []string{"Benchmark", "V", "E", "clq", "dsat", "chi", "RoutableW",
		calibrateFast + " @chi-1", calibrateSlow + " @chi-1", calibrateFast + " @chi"}
	var rows [][]string
	for _, c := range r.Rows {
		chi := strconv.Itoa(c.Chi.Chi)
		if !c.Chi.Proved {
			chi = "≤" + chi
		}
		rows = append(rows, []string{
			c.Instance, strconv.Itoa(c.V), strconv.Itoa(c.E),
			strconv.Itoa(c.Chi.LowerBound), strconv.Itoa(c.Chi.UpperBound), chi, strconv.Itoa(c.RoutableW),
			timingCell(c.UnsatFast, sat.Unsat), timingCell(c.UnsatSlow, sat.Unsat), timingCell(c.SatFast, sat.Sat),
		})
	}
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}

// timingCell renders a single-shot solve time, appending the answer
// when it is definite but not the expected one.
func timingCell(t Timing, want sat.Status) string {
	cell := fmtCell(t, Timing.Total)
	if t.Status != want && t.Status != sat.Unknown {
		cell += " (" + t.Status.String() + "!)"
	}
	return cell
}
