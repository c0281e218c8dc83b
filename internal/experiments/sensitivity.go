package experiments

import (
	"fmt"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/report"
)

// expSensitivity re-runs the Figure 7 experiment under alternative machine
// calibrations. The paper's conclusions are ratio-driven (§III); if they
// only held for one parameter set the reproduction would be fragile, so
// this experiment asserts the headline shape — 8 threads/node optimal,
// beats SMP, 16 threads collapses — on the paper's platform, a modern
// calibration (100 Gb/s-class fabric, DDR4), and an RDMA-enabled variant.
type expSensitivity struct {
	Cfg  Config
	Rows []expSensitivityRow
}

// expSensitivityRow is one calibration's Figure-7 summary.
type expSensitivityRow struct {
	Name      string
	BestTPN   int
	BestNS    float64
	SMPNS     float64
	Cliff     float64 // 16-thread time over best
	ShapeHold bool
}

// runSensitivity executes Figure 7 under each calibration.
func runSensitivity(cfg Config) *expSensitivity {
	cfg = cfg.WithDefaults()
	e := &expSensitivity{Cfg: cfg}

	paper := machine.PaperCluster()
	modern := machine.ModernCluster()
	rdma := machine.PaperCluster()
	rdma.RDMA = true

	for _, variant := range []struct {
		name string
		base machine.Config
	}{
		{"paper P575+/HPS", paper},
		{"modern fabric/DDR4", modern},
		{"paper + RDMA", rdma},
	} {
		sub := cfg
		sub.Base = &variant.base
		f := runFig07(sub)
		b := f.Best()
		row := expSensitivityRow{
			Name:    variant.name,
			BestTPN: f.Threads[b],
			BestNS:  f.NS[b],
			SMPNS:   f.SMPNS,
			Cliff:   f.NS[len(f.NS)-1] / f.NS[b],
		}
		row.ShapeHold = row.BestTPN == 8 && row.BestNS < row.SMPNS && row.Cliff > 2
		e.Rows = append(e.Rows, row)
	}
	return e
}

// Table renders the comparison.
func (e *expSensitivity) Table() *report.Table {
	t := report.NewTable(
		"Calibration sensitivity: Figure 7's shape under alternative machines",
		"machine", "best threads/node", "best ms", "vs SMP", "16-thread cliff", "shape holds")
	for _, r := range e.Rows {
		t.AddRow(r.Name, fmt.Sprint(r.BestTPN), report.MS(r.BestNS),
			report.Ratio(r.SMPNS/r.BestNS), report.Ratio(r.Cliff),
			fmt.Sprint(r.ShapeHold))
	}
	t.AddNote("the paper's conclusions are ratio-driven (§III): they should survive recalibration")
	return t
}

// CheckShape asserts the headline shape under every calibration.
func (e *expSensitivity) CheckShape() error {
	for _, r := range e.Rows {
		if !r.ShapeHold {
			return fmt.Errorf("sensitivity: shape broke under %q (best tpn %d, vs SMP %.2fx, cliff %.2fx)",
				r.Name, r.BestTPN, r.SMPNS/r.BestNS, r.Cliff)
		}
	}
	return nil
}
