package experiments

import "testing"

// BenchmarkRows runs every row at 0.2% of the paper's inputs, one
// sub-benchmark per row, reporting its first series' simulated ms summed
// over the points next to Go's wall-clock numbers; `pgasbench -scale 0.01
// -check all` is the validated reproduction configuration.
func BenchmarkRows(b *testing.B) {
	for _, row := range All() {
		b.Run(row.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ns float64
				for _, ms := range row.Run(Config{Scale: 0.002}).Measures {
					ns += ms[0].NS
				}
				b.ReportMetric(ns/1e6, "sim-ms")
			}
		})
	}
}
