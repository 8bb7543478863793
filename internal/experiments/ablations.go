package experiments

import (
	"fmt"
	"runtime"
	"time"

	"healthcloud/internal/blockchain"
	"healthcloud/internal/hccache"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/jmf"
	"healthcloud/internal/kb"
)

// Ablations isolate the design choices DESIGN.md calls out: which parts
// of JMF's integration actually pay, what endorsement strictness costs,
// and what each cache tier contributes.

// A1JMFSourceAblation removes JMF's side-information blocks one at a
// time: full model vs drug-sims-only vs disease-sims-only vs none (plain
// MF). The paper's integration argument predicts full > either-side >
// none.
func A1JMFSourceAblation() (*Result, error) {
	cfg := kb.DefaultConfig()
	cfg.Drugs, cfg.Diseases = 120, 90
	d, err := kb.Generate(cfg)
	if err != nil {
		return nil, err
	}
	train, held := d.HoldOut(0.2, 1)
	var S, T [][][]float64
	for _, src := range kb.DrugSources {
		S = append(S, d.DrugSim[src])
	}
	for _, src := range kb.DiseaseSources {
		T = append(T, d.DisSim[src])
	}
	jcfg := jmf.DefaultConfig()
	arms := []struct {
		label string
		s     [][][]float64
		t     [][][]float64
	}{
		{"full (drug + disease sources)", S, T},
		{"drug sources only", S, nil},
		{"disease sources only", nil, T},
		{"no side information (plain MF)", nil, nil},
	}
	rows := make([]Row, 0, len(arms))
	aucs := make([]float64, len(arms))
	for i, arm := range arms {
		m, err := jmf.Fit(train, arm.s, arm.t, jcfg)
		if err != nil {
			return nil, err
		}
		aucs[i] = jmf.AUC(jmf.ScoresOf(m), d.Assoc, train, held)
		rows = append(rows, Row{arm.label + ": AUC", aucs[i], ""})
	}
	holds := aucs[0] > aucs[1] && aucs[0] > aucs[2] && aucs[0] > aucs[3]
	return &Result{
		ID:         "A1",
		Title:      "ablation: which JMF information blocks pay (120×90, 20% held out)",
		PaperClaim: "JMF's advantage comes from integrating BOTH drug and disease information (§V-A contribution 1)",
		Rows:       rows,
		Shape: verdict(holds, fmt.Sprintf("full integration (%.3f) beats every ablated variant (%.3f/%.3f/%.3f)",
			aucs[0], aucs[1], aucs[2], aucs[3])),
	}, nil
}

// A2EndorsementPolicy measures what endorsement strictness costs on the
// provenance ledger: 1-of-3 vs 2-of-3 vs 3-of-3 signatures per
// transaction, each submitted as its own ordering entry (a group of
// one), so every transaction pays the full K signatures — batching would
// divide them by the batch size and measure something else. The verdict
// compares CPU time rather than wall clock: endorsement signs with the
// policyK peers in parallel, so on an idle multi-core machine stricter
// policies hide their extra signatures in concurrency — but the
// signature WORK (what a loaded platform actually pays) still grows
// linearly with K, and rusage measures it on any core count.
func A2EndorsementPolicy() (*Result, error) {
	const total = 96
	const reps = 3 // min-of-3: CPU noise (GC, interrupts) is strictly additive
	rows := []Row{}
	var tps, cpus []float64
	for _, k := range []int{1, 2, 3} {
		// RSA-PSS pinned: the linear-in-K CPU claim needs signatures
		// expensive enough to dominate the rusage delta; Ed25519 signing
		// would drown in ordering noise (E22 owns that regime).
		net, err := blockchain.NewNetwork("bench", []string{"p0", "p1", "p2"}, k,
			blockchain.WithSignatureScheme(hckrypto.SchemeRSAPSS))
		if err != nil {
			return nil, err
		}
		bestCPU := -1.0
		bestTPS := 0.0
		for rep := 0; rep < reps; rep++ {
			// Quiesce the heap: garbage left by earlier experiments (A1's
			// matrix fits) would otherwise be collected mid-arm and billed
			// to whichever arm GC happens to land in.
			runtime.GC()
			cpu0, err := e16CPU()
			if err != nil {
				net.Close()
				return nil, err
			}
			start := time.Now()
			for i := 0; i < total; i++ {
				tx := blockchain.NewTransaction(blockchain.EventDataReceipt, "bench",
					fmt.Sprintf("h-%d-%d-%d", k, rep, i), nil, nil)
				if err := net.Submit(tx, 30*time.Second); err != nil {
					net.Close()
					return nil, err
				}
			}
			elapsed := time.Since(start)
			cpu1, err := e16CPU()
			if err != nil {
				net.Close()
				return nil, err
			}
			cpuMS := (cpu1 - cpu0).Seconds() * 1000
			if bestCPU < 0 || cpuMS < bestCPU {
				bestCPU = cpuMS
			}
			if tp := float64(total) / elapsed.Seconds(); tp > bestTPS {
				bestTPS = tp
			}
		}
		net.Close()
		tps = append(tps, bestTPS)
		cpus = append(cpus, bestCPU)
		rows = append(rows, Row{fmt.Sprintf("%d-of-3 endorsement: throughput", k), bestTPS, "tx/s"})
		rows = append(rows, Row{fmt.Sprintf("%d-of-3 endorsement: cpu (min of %d)", k, reps), bestCPU, "ms"})
	}
	holds := cpus[2] > cpus[1] && cpus[1] > cpus[0]
	return &Result{
		ID:         "A2",
		Title:      "ablation: endorsement-policy strictness vs ledger cost",
		PaperClaim: "endorsement policy is a security/throughput dial; stricter policies cost per-tx signature work (§IV design decision)",
		Rows:       append(rows, Row{"cpu cost of 3-of-3 vs 1-of-3", cpus[2] / cpus[0], "x"}),
		Shape:      verdict(holds, fmt.Sprintf("signature work rises monotonically with policy strictness (%.0f→%.0f→%.0f ms cpu)", cpus[0], cpus[1], cpus[2])),
	}, nil
}

// A3CacheTierAblation isolates what each tier of Fig 4's cache hierarchy
// contributes: client-only, server-only, and both, at a small client
// cache (64 entries) against a 40 ms WAN.
func A3CacheTierAblation() (*Result, error) {
	cfg := kb.DefaultConfig()
	cfg.Drugs, cfg.Diseases = 150, 100
	d, err := kb.Generate(cfg)
	if err != nil {
		return nil, err
	}
	const reads = 10_000
	const lan, wan = 2 * time.Millisecond, 40 * time.Millisecond
	keys := zipfKeys(kbKeyspace(d), reads, 3)
	type arm struct {
		label  string
		tiers  func() []*hccache.Cache
		isBoth bool
	}
	mk := func(size int) *hccache.Cache {
		c, _ := hccache.New(size, 0)
		return c
	}
	arms := []arm{
		{"client tier only (64)", func() []*hccache.Cache { return []*hccache.Cache{mk(64)} }, false},
		{"server tier only (4096)", func() []*hccache.Cache { return []*hccache.Cache{mk(4096)} }, false},
		{"both tiers (64 + 4096)", func() []*hccache.Cache { return []*hccache.Cache{mk(64), mk(4096)} }, true},
	}
	rows := []Row{}
	var meanBoth, meanBest time.Duration
	for _, a := range arms {
		sleep, remoteTime := accountedSleeper()
		remote := kb.NewRemoteKB(d, wan, kb.WithSleeper(sleep))
		tiers := a.tiers()
		tc, err := hccache.NewTiered(remote.Loader(), tiers...)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if _, err := tc.Get(k); err != nil {
				return nil, err
			}
		}
		// Cost model: reads that reach past the first tier pay the LAN hop
		// when a server tier exists remotely (tiers beyond index 0 in the
		// "both" arm; the server-only arm pays LAN on every read since the
		// cache itself lives across the LAN).
		var modeled time.Duration
		stats := tc.TierStats()
		switch {
		case a.isBoth:
			serverProbes := stats[1].Hits + stats[1].Misses
			modeled = time.Duration(serverProbes)*lan + *remoteTime
		case a.label[0] == 's':
			modeled = time.Duration(reads)*lan + *remoteTime
		default:
			modeled = *remoteTime
		}
		mean := modeled / reads
		rows = append(rows, Row{a.label + ": mean latency", float64(mean.Microseconds()), "µs"})
		if a.isBoth {
			meanBoth = mean
		} else if meanBest == 0 || mean < meanBest {
			meanBest = mean
		}
	}
	return &Result{
		ID:         "A3",
		Title:      "ablation: client tier vs server tier vs both (Fig 4 hierarchy)",
		PaperClaim: "caching at multiple levels and not just at the client level (§I)",
		Rows:       rows,
		Shape: verdict(meanBoth < meanBest, fmt.Sprintf("both tiers (%dµs) beat the best single tier (%dµs)",
			meanBoth.Microseconds(), meanBest.Microseconds())),
	}, nil
}

// Ablations runs A1–A3.
func Ablations() ([]*Result, error) {
	funcs := []func() (*Result, error){A1JMFSourceAblation, A2EndorsementPolicy, A3CacheTierAblation}
	out := make([]*Result, 0, len(funcs))
	for _, f := range funcs {
		r, err := f()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
