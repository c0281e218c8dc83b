package experiments

import "testing"

// One benchmark per figure and extension experiment, each reporting the
// experiment's key simulated-time metric alongside Go's wall-clock
// numbers. They run at 0.2% of the paper's inputs so the whole suite
// completes in minutes; `pgasbench -scale 0.01 -check all` is the
// validated reproduction configuration.

// benchScale keeps each figure run around a second of wall time.
const benchScale = 0.002

func benchCfg() Config {
	return Config{Scale: benchScale}
}

func BenchmarkFig02NaiveVsSMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := RunFig02(benchCfg())
		b.ReportMetric(f.Rows[0].NaiveNS/f.Rows[0].SMPNS, "slowdown")
	}
}

func BenchmarkFig03Coalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFig03(benchCfg())
		b.ReportMetric(f.OrigNS/f.CCNS, "speedup")
	}
}

func BenchmarkFig04VirtualThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := RunFig04(benchCfg())
		in := f.Inputs[0]
		b.ReportMetric(in.SMPNS/in.NS[in.Best()], "best-vs-smp")
	}
}

func BenchmarkFig05AblationRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFig05(benchCfg())
		b.ReportMetric(f.Bars[0].TotalNS/f.Bars[len(f.Bars)-1].TotalNS, "base-vs-opt")
	}
}

func BenchmarkFig06AblationHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := RunFig06(benchCfg())
		b.ReportMetric(f.Bars[0].TotalNS/f.Bars[len(f.Bars)-1].TotalNS, "base-vs-opt")
	}
}

func BenchmarkFig07CCScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFig07(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

func BenchmarkFig08CCScalingDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFig08(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

func BenchmarkFig09MSTScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFig09(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

func BenchmarkFig10MSTScalingDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFig10(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

func BenchmarkListRankExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := runListRank(benchCfg())
		last := len(e.Nodes) - 1
		b.ReportMetric(e.Wyllie[last]/e.CGM[last], "wyllie-vs-cgm")
	}
}

func BenchmarkBFSDiameterExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := runBFS(benchCfg())
		b.ReportMetric(e.Rows[1].BFSNS/e.Rows[0].BFSNS, "grid-vs-random")
	}
}

func BenchmarkCCMergeExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := runCCMerge(benchCfg())
		b.ReportMetric(e.Rows[0].MergeNS/e.Rows[0].CoalescedNS, "merge-vs-coalesced")
	}
}

func BenchmarkOutOfCoreExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := runOutOfCore(benchCfg())
		last := e.Rows[len(e.Rows)-1]
		best := last.SMPNS
		if last.ExternalNS < best {
			best = last.ExternalNS
		}
		b.ReportMetric(best/last.ClusterNS, "cluster-speedup")
	}
}

func BenchmarkScalingExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := runScaling(benchCfg())
		first, last := e.Rows[0], e.Rows[len(e.Rows)-1]
		b.ReportMetric(first.StrongNS/last.StrongNS, "strong-speedup")
	}
}
