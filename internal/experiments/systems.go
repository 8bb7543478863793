package experiments

import (
	"fmt"
	"time"

	"healthcloud/internal/anonymize"
	"healthcloud/internal/attest"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/bus"
	"healthcloud/internal/cloud"
	"healthcloud/internal/consent"
	"healthcloud/internal/fhir"
	"healthcloud/internal/gateway"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/ingest"
	"healthcloud/internal/scan"
	"healthcloud/internal/store"
)

// E5IngestPipeline measures why §II-B makes ingestion asynchronous:
// the client-facing accept path (stage + enqueue + status URL) must cost
// far less than the full decrypt/validate/scan/consent/de-identify/store
// pipeline, so clients are never blocked on the slow part. Bundles carry
// 200 lab observations each so the background work is realistic.
func E5IngestPipeline() (*Result, error) {
	const bundles = 300
	kms, err := hckrypto.NewKMS("bench")
	if err != nil {
		return nil, err
	}
	msgBus := bus.New()
	defer msgBus.Close()
	scanner, err := scan.NewScanner(scan.DefaultSignatures()...)
	if err != nil {
		return nil, err
	}
	consents := consent.NewService()
	p, err := ingest.New(ingest.Deps{
		Tenant: "bench", KMS: kms,
		Lake:  store.NewDataLake(kms, "svc-storage"),
		IDMap: store.NewIdentityMap("svc-reident"),
		Bus:   msgBus, Scanner: scanner, Consents: consents,
		Verifier: &anonymize.VerificationService{},
		Log:      audit.NewLog(),
	})
	if err != nil {
		return nil, err
	}
	p.Start(4)
	defer p.Close()
	key, err := p.RegisterClient("bench-client")
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, bundles)
	for i := range payloads {
		pid := fmt.Sprintf("patient-%04d", i)
		consents.Grant(pid, "study", consent.PurposeResearch, 0)
		b := fhir.NewBundle("collection")
		b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: pid, Gender: "female"})
		for v := 0; v < 200; v++ {
			b.AddResource(&fhir.Observation{ResourceType: "Observation", Status: "final",
				Code:          fhir.CodeableConcept{Coding: []fhir.Coding{{System: "http://loinc.org", Code: "4548-4", Display: "HbA1c"}}},
				Subject:       fhir.Reference{Reference: "Patient/" + pid},
				ValueQuantity: &fhir.Quantity{Value: 5 + float64(v%40)/10, Unit: "%"}})
		}
		raw, err := fhir.Marshal(b)
		if err != nil {
			return nil, err
		}
		if payloads[i], err = hckrypto.EncryptGCM(key, raw, []byte("bench-client")); err != nil {
			return nil, err
		}
	}
	// Client-facing accept latency: what Upload costs the caller.
	var acceptTotal time.Duration
	start := time.Now()
	for _, payload := range payloads {
		t0 := time.Now()
		if _, err := p.Upload("bench-client", "study", payload); err != nil {
			return nil, err
		}
		acceptTotal += time.Since(t0)
	}
	if err := p.WaitForIdle(120 * time.Second); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	acceptMean := acceptTotal / bundles
	// Full processing latency per bundle (all stages, amortized).
	processMean := wall / bundles
	tput := float64(bundles) / wall.Seconds()
	ratio := float64(processMean) / float64(acceptMean)
	return &Result{
		ID:         "E5",
		Title:      "asynchronous ingestion: accept latency vs full pipeline (300 bundles × 200 observations)",
		PaperClaim: "data ingestion is a slow process and is thus designed as an asynchronous communication process behind a status URL (§II-B)",
		Rows: []Row{
			{"client-facing accept latency", float64(acceptMean.Microseconds()), "µs"},
			{"full pipeline latency per bundle", float64(processMean.Microseconds()), "µs"},
			{"async advantage for the client", ratio, "x"},
			{"sustained pipeline throughput", tput, "bundles/s"},
		},
		Shape: verdict(ratio > 10, fmt.Sprintf("the accept path is %.0fx cheaper than the pipeline it defers", ratio)),
	}, nil
}

// e6Arm commits `total` transactions in group-endorsed batches of
// `batch` (one endorsement per peer per batch) on a fresh RSA-PSS
// network and returns the sustained throughput.
func e6Arm(total, batch int) (float64, error) {
	// Pinned to RSA-PSS endorsement: the amortization claim (and its
	// gain > 2 bar) is calibrated against expensive per-tx signatures;
	// E22 covers the cheap-signature (Ed25519) regime.
	net, err := blockchain.NewNetwork("bench", []string{"p0", "p1", "p2"}, 2,
		blockchain.WithSignatureScheme(hckrypto.SchemeRSAPSS))
	if err != nil {
		return 0, err
	}
	defer net.Close()
	// One untimed submit settles the ordering cluster's first election
	// (50-100 ms): at event-driven commit speeds it would otherwise be
	// most of a 128-tx arm.
	warm := blockchain.NewTransaction(blockchain.EventDataReceipt, "bench", "warm-up", nil, nil)
	if err := net.Submit(warm, 30*time.Second); err != nil {
		return 0, err
	}
	start := time.Now()
	for sent := 0; sent < total; sent += batch {
		n := batch
		if sent+n > total {
			n = total - sent
		}
		txs := make([]blockchain.Transaction, n)
		for i := range txs {
			txs[i] = blockchain.NewTransaction(blockchain.EventDataReceipt, "bench",
				fmt.Sprintf("h-%d", sent+i), nil, nil)
		}
		if err := net.SubmitBatch(txs, 30*time.Second); err != nil {
			return 0, err
		}
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// E6LedgerCommit measures provenance-blockchain commit throughput across
// batch sizes (§IV). Every batch is group-endorsed — one endorsement per
// peer per batch, a lone transaction being a group of one — so batching
// amortizes the two RSA-PSS signatures that cap a singleton's throughput,
// along with the (event-driven, cheap) ordering round and commit wait.
// The group-commit Batcher forms these batches under load; E17 measures
// it end to end.
func E6LedgerCommit() (*Result, error) {
	const total = 128
	rows := []Row{}
	var tpSingle, tpGroup float64
	for _, batch := range []int{1, 16, 64} {
		tput, err := e6Arm(total, batch)
		if err != nil {
			return nil, err
		}
		if batch == 1 {
			tpSingle = tput
		}
		tpGroup = tput
		rows = append(rows, Row{fmt.Sprintf("batch=%2d: commit throughput", batch), tput, "tx/s"})
	}
	gain := tpGroup / tpSingle
	rows = append(rows, Row{"batching gain", gain, "x"})
	return &Result{
		ID:         "E6",
		Title:      "provenance ledger commit throughput vs batch size (3 peers, 2-of-3 endorsement)",
		PaperClaim: "blockchain provenance for every data event is feasible; batching amortizes consensus (§IV, Fig 6)",
		Rows:       rows,
		Shape: verdict(gain > 2, fmt.Sprintf(
			"group-endorsed batches of 64 commit %.1fx faster than single transactions", gain)),
	}, nil
}

// E8AttestationChain measures the cost of transitive-trust verification
// (Fig 5): full hardware→hypervisor→guest chains plus per-container
// attestations.
func E8AttestationChain() (*Result, error) {
	attSvc := attest.NewService()
	log := audit.NewLog()
	signer, err := hckrypto.NewSigningKey(2048)
	if err != nil {
		return nil, err
	}
	attSvc.ApproveImageSigner(signer.Public())
	c := cloud.New(attSvc, log)
	img, err := cloud.NewImage("os", []byte("os"), signer)
	if err != nil {
		return nil, err
	}
	if err := c.Registry().Register(img); err != nil {
		return nil, err
	}
	if _, err := c.ProvisionHost("h", 4); err != nil {
		return nil, err
	}
	if _, err := c.LaunchVM("h", "vm", "os"); err != nil {
		return nil, err
	}

	const iters = 20
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := c.AttestVM("h", "vm"); err != nil {
			return nil, err
		}
	}
	vmChain := time.Since(start) / iters

	ctrImg, err := cloud.NewImage("workload", []byte("wl"), signer)
	if err != nil {
		return nil, err
	}
	if err := c.Registry().Register(ctrImg); err != nil {
		return nil, err
	}
	if _, err := c.StartContainer("h", "vm", "ctr", "workload"); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := c.AttestContainer("h", "vm", "ctr"); err != nil {
			return nil, err
		}
	}
	ctrChain := time.Since(start) / iters

	return &Result{
		ID:         "E8",
		Title:      "transitive trust chain attestation cost (Fig 5)",
		PaperClaim: "the root of trust extends transitively to containers, attested whenever a workload starts (§II-A, §II-C)",
		Rows: []Row{
			{"hardware→hypervisor→guest chain", float64(vmChain.Microseconds()) / 1000, "ms"},
			{"full chain incl. container layer", float64(ctrChain.Microseconds()) / 1000, "ms"},
		},
		Shape: verdict(ctrChain < 100*time.Millisecond, fmt.Sprintf("full-chain attestation costs %.1f ms — cheap enough to gate every workload start", float64(ctrChain.Microseconds())/1000)),
	}, nil
}

// E11KAnonymity measures the anonymization verification service on a
// 10k-record cohort: verification cost and the suppression needed to
// reach each k (§IV-C).
func E11KAnonymity() (*Result, error) {
	const records = 10_000
	table := &anonymize.Table{QuasiIDs: []string{"age", "zip", "sex"}, Sensitive: "dx"}
	// ~60 distinct ZIP prefixes so equivalence classes are realistic: most
	// classes are large, a thin tail needs suppression.
	for i := 0; i < records; i++ {
		table.Rows = append(table.Rows, anonymize.Record{
			"age": anonymize.GeneralizeAge((i*37)%95, 10),
			"zip": anonymize.GeneralizeZip(fmt.Sprintf("%03d42", (i*i+3*i)%60), nil),
			"sex": []string{"F", "M"}[i%2],
			"dx":  fmt.Sprintf("dx-%d", i%7),
		})
	}
	v := &anonymize.VerificationService{}
	start := time.Now()
	rep, err := v.Verify(table)
	if err != nil {
		return nil, err
	}
	verifyT := time.Since(start)
	rows := []Row{
		{"verification time, 10k records", float64(verifyT.Microseconds()) / 1000, "ms"},
		{"cohort k-anonymity (as generalized)", float64(rep.K), "k"},
		{"cohort l-diversity", float64(rep.L), "l"},
	}
	for _, k := range []int{2, 5, 10} {
		suppressed, dropped := table.Suppress(k)
		rows = append(rows, Row{fmt.Sprintf("rows suppressed to reach k=%d", k), float64(dropped), "rows"})
		if got := suppressed.KAnonymity(); len(suppressed.Rows) > 0 && got < k {
			return nil, fmt.Errorf("suppression to k=%d achieved only %d", k, got)
		}
	}
	return &Result{
		ID:         "E11",
		Title:      "anonymization verification service on a 10k-record cohort",
		PaperClaim: "the anonymization verification service measures the degree of anonymization before data is accepted or exported (§IV-C)",
		Rows:       rows,
		Shape:      verdict(verifyT < time.Second, "verification is sub-second at 10k records; suppression reaches any required k"),
	}, nil
}

// E13ComputeToData reproduces §II-C's efficiency argument: shipping a
// signed 1 MiB analytics container to the data versus moving a 512 MiB
// dataset to the analytics cloud, over a 50 ms / 100 MB/s WAN.
func E13ComputeToData() (*Result, error) {
	attSvc := attest.NewService()
	signer, err := hckrypto.NewSigningKey(2048)
	if err != nil {
		return nil, err
	}
	attSvc.ApproveImageSigner(signer.Public())
	dst := cloud.New(attSvc, audit.NewLog())
	osImg, err := cloud.NewImage("os", []byte("os"), signer)
	if err != nil {
		return nil, err
	}
	if err := dst.Registry().Register(osImg); err != nil {
		return nil, err
	}
	if _, err := dst.ProvisionHost("h", 2); err != nil {
		return nil, err
	}
	if _, err := dst.LaunchVM("h", "vm", "os"); err != nil {
		return nil, err
	}
	sleep, _ := accountedSleeper()
	gw, err := gateway.New(gateway.Link{Latency: 50 * time.Millisecond, BandwidthMBps: 100},
		gateway.WithSleeper(sleep))
	if err != nil {
		return nil, err
	}
	workload, err := cloud.NewImage("jmf", make([]byte, 1<<20), signer)
	if err != nil {
		return nil, err
	}
	receipt, err := gw.ShipWorkload(dst, "h", "vm", "wl", workload)
	if err != nil {
		return nil, err
	}
	dataTime, err := gw.ShipData(512 << 20)
	if err != nil {
		return nil, err
	}
	ratio := float64(dataTime) / float64(receipt.TransferTime)
	return &Result{
		ID:         "E13",
		Title:      "intercloud gateway: computation-to-data vs data-to-computation",
		PaperClaim: "transferring trusted analytic containers to the data is very efficient and secured (§II-C)",
		Rows: []Row{
			{"ship 1 MiB signed container + attest", float64(receipt.TransferTime.Milliseconds()), "ms"},
			{"ship 512 MiB dataset instead", float64(dataTime.Milliseconds()), "ms"},
			{"compute-to-data advantage", ratio, "x"},
			{"workload remote-attested at start", boolAs(receipt.AttestedChain), "(1=yes)"},
		},
		Shape: verdict(ratio > 10 && receipt.AttestedChain, fmt.Sprintf("moving the computation is %.0fx cheaper and arrives attested", ratio)),
	}, nil
}

func boolAs(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
