package core

import (
	"errors"
	"testing"
	"time"

	"healthcloud/internal/analytics"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/client"
	"healthcloud/internal/consent"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/kb"
	"healthcloud/internal/rbac"
	"healthcloud/internal/services"
	"healthcloud/internal/ssi"
	"healthcloud/internal/telemetry"
)

// smallKB keeps platform construction fast in tests.
func smallKB(t *testing.T) *kb.Dataset {
	t.Helper()
	cfg := kb.DefaultConfig()
	cfg.Drugs, cfg.Diseases = 30, 20
	d, err := kb.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newPlatform(t *testing.T, ledger bool) *Platform {
	t.Helper()
	cfg := Config{Tenant: "mercy-health", KBDataset: smallKB(t)}
	if ledger {
		cfg.LedgerPeers = []string{"hospital", "audit-svc", "data-protection"}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty tenant accepted")
	}
}

// TestMonitorWithDrugLessDataset pins that a caller-supplied dataset
// with no drugs (kb.Generate always plants some; a hand-built Dataset
// need not) degrades to "no kb-remote probe" instead of panicking in
// core.New when monitoring is on.
func TestMonitorWithDrugLessDataset(t *testing.T) {
	dataset := smallKB(t)
	dataset.DrugIDs = nil
	p, err := New(Config{
		Tenant:          "mercy-health",
		KBDataset:       dataset,
		Telemetry:       telemetry.New(),
		Monitor:         true,
		MonitorInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep := p.Monitor.Prober().Probe()
	if _, ok := rep.Components["kb-remote"]; ok {
		t.Error("kb-remote probe registered with nothing to fetch")
	}
	if _, ok := rep.Components["data-lake"]; !ok {
		t.Errorf("remaining probes missing: %+v", rep)
	}
}

// TestWatchdogTicksNeverGrowLedger pins the probe contract end to end:
// monitoring rounds (and therefore unauthenticated /readyz traffic)
// must not commit transactions to the audit-grade provenance ledger.
func TestWatchdogTicksNeverGrowLedger(t *testing.T) {
	p, err := New(Config{
		Tenant:          "mercy-health",
		KBDataset:       smallKB(t),
		LedgerPeers:     []string{"hospital", "audit-svc", "data-protection"},
		Telemetry:       telemetry.New(),
		Monitor:         true,
		MonitorInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	peer, err := p.Provenance.Peer("audit-svc")
	if err != nil {
		t.Fatal(err)
	}
	before := peer.Ledger().TxCount()
	for i := 0; i < 5; i++ {
		p.Monitor.Watchdog().Tick()
	}
	if got := peer.Ledger().TxCount(); got != before {
		t.Errorf("ledger grew from %d to %d txs across 5 watchdog ticks; probes must be side-effect free", before, got)
	}
}

func TestComponentInventoryFigure1(t *testing.T) {
	p := newPlatform(t, true)
	got := p.Components()
	// Every key element named in Figs 1-3 must be present.
	want := []string{
		"analytics-platform", "attestation-service", "change-management",
		"consent-management", "data-ingestion", "data-lake",
		"federated-identity", "image-management", "internal-messaging",
		"key-management", "logging-monitoring", "privacy-management-rbac",
		"provenance-blockchain", "registration-service",
		"resource-provisioning", "tpm-vtpm",
	}
	have := make(map[string]bool, len(got))
	for _, c := range got {
		have[c] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("component %q missing from inventory", w)
		}
	}
	// Without a ledger the blockchain is absent, everything else remains.
	p2 := newPlatform(t, false)
	for _, c := range p2.Components() {
		if c == "provenance-blockchain" {
			t.Error("ledger-less platform claims a blockchain")
		}
	}
}

func TestHIPAAControlsFigure8(t *testing.T) {
	p := newPlatform(t, false)
	controls := p.HIPAAControls()
	pillars := map[string]int{}
	for _, c := range controls {
		pillars[c.Pillar]++
		if c.Component == "" {
			t.Errorf("control %q has no implementing component", c.Name)
		}
	}
	// Fig 8's four pillars all have mapped controls.
	for _, pillar := range []string{"administrative", "physical", "technical", "policies"} {
		if pillars[pillar] == 0 {
			t.Errorf("pillar %q has no controls", pillar)
		}
	}
}

func TestProvisionTrustedInstance(t *testing.T) {
	p := newPlatform(t, false)
	signer, err := hckrypto.NewSigningKey(2048)
	if err != nil {
		t.Fatal(err)
	}
	host, vm, err := p.ProvisionTrustedInstance(signer)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Cloud.AttestVM(host, vm); err != nil {
		t.Errorf("instance not re-attestable: %v", err)
	}
	// A compromised platform VM stops attesting.
	vmObj, err := p.Cloud.VM(host, vm)
	if err != nil {
		t.Fatal(err)
	}
	vmObj.CompromiseVM()
	if err := p.Cloud.AttestVM(host, vm); err == nil {
		t.Error("compromised platform VM still attests")
	}
}

// TestEndToEndThroughPlatform drives device → ingest → lake → export via
// the composed platform with a live blockchain.
func TestEndToEndThroughPlatform(t *testing.T) {
	p := newPlatform(t, true)
	dev, err := p.NewEnhancedClient("device-1", 16)
	if err != nil {
		t.Fatal(err)
	}
	p.Consents.Grant("patient-1", "study-1", consent.PurposeResearch, 0)

	b := fhir.NewBundle("collection")
	b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: "patient-1",
		Name: []fhir.HumanName{{Family: "Doe"}}, Gender: "female",
		Address: []fhir.Address{{State: "NY", PostalCode: "10598"}}})
	b.AddResource(&fhir.Observation{ResourceType: "Observation", Status: "final",
		Code: fhir.CodeableConcept{Text: "HbA1c"}, ValueQuantity: &fhir.Quantity{Value: 7.1}})

	if _, err := dev.Capture(b, "study-1", client.Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := p.Ingest.WaitForUpload(dev.Uploads()[0], 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "stored" {
		t.Fatalf("status = %+v", st)
	}
	// Provenance on the real ledger.
	peer, err := p.Provenance.Peer("audit-svc")
	if err != nil {
		t.Fatal(err)
	}
	trail := peer.Ledger().ProvenanceTrail(st.RefID)
	if len(trail) != 1 || trail[0].Type != blockchain.EventDataReceipt {
		t.Errorf("trail = %+v", trail)
	}
	if err := peer.Ledger().VerifyChain(); err != nil {
		t.Errorf("ledger chain: %v", err)
	}
}

func TestConsentProvenanceSync(t *testing.T) {
	p := newPlatform(t, true)
	p.Consents.Grant("patient-1", "study-1", consent.PurposeResearch, 0)
	p.Consents.Revoke("patient-1", "study-1", consent.PurposeResearch)
	n, err := p.SyncConsentProvenance(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("synced %d events", n)
	}
	peer, _ := p.Provenance.Peer("hospital")
	granted := peer.Ledger().Audit(blockchain.AuditQuery{Type: blockchain.EventConsentGranted})
	revoked := peer.Ledger().Audit(blockchain.AuditQuery{Type: blockchain.EventConsentRevoked})
	if len(granted) != 1 || len(revoked) != 1 {
		t.Errorf("granted=%d revoked=%d", len(granted), len(revoked))
	}
	// Idempotent drain.
	if n, _ := p.SyncConsentProvenance(time.Second); n != 0 {
		t.Errorf("second sync = %d", n)
	}
	// Ledger-less platform is a no-op.
	p2 := newPlatform(t, false)
	p2.Consents.Grant("p", "g", consent.PurposeResearch, 0)
	if n, err := p2.SyncConsentProvenance(time.Second); err != nil || n != 0 {
		t.Errorf("no-ledger sync = %d, %v", n, err)
	}
}

func TestCheckAccessAudited(t *testing.T) {
	p := newPlatform(t, false)
	scope := rbac.Scope{Tenant: "mercy-health"}
	p.RBAC.RegisterUser("mercy-health", "analyst-1")
	p.RBAC.AssignRole("analyst-1", rbac.RoleAnalyst, scope, "")
	if err := p.CheckAccess("analyst-1", rbac.ActionRead, "deid", scope, ""); err != nil {
		t.Errorf("analyst read deid: %v", err)
	}
	if err := p.CheckAccess("analyst-1", rbac.ActionRead, "phi", scope, ""); !errors.Is(err, rbac.ErrDenied) {
		t.Errorf("analyst read phi: %v", err)
	}
	// Both decisions landed in the audit log.
	if got := p.Audit.Find(audit.Query{Action: "access-allow", Actor: "analyst-1"}); len(got) != 1 {
		t.Errorf("allow events = %d", len(got))
	}
	if got := p.Audit.Find(audit.Query{Action: "access-deny", Actor: "analyst-1"}); len(got) != 1 {
		t.Errorf("deny events = %d", len(got))
	}
}

func TestKBThroughServerCache(t *testing.T) {
	p := newPlatform(t, false)
	key := "drug:" + p.KB.DrugIDs[0]
	for i := 0; i < 10; i++ {
		if _, err := p.KBCache.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if p.KBRemote.Calls() != 1 {
		t.Errorf("remote calls = %d, want 1", p.KBRemote.Calls())
	}
}

func TestModelPushRequiresDeployment(t *testing.T) {
	p := newPlatform(t, false)
	dev, err := p.NewEnhancedClient("device-1", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InstallModel("hba1c"); err == nil {
		t.Error("undeployed model installable")
	}
	// Walk a model through the lifecycle, then install.
	m := &analytics.LinearModel{Name: "hba1c", Bias: 6}
	payload, _ := m.Marshal()
	p.Analytics.Create("hba1c", nil)
	p.Analytics.MarkTrained("hba1c", 1, payload)
	p.Analytics.RecordTest("hba1c", 1, map[string]float64{"auc": 0.9}, "auc", 0.5)
	p.Analytics.Approve("hba1c", 1, "compliance")
	p.Analytics.Deploy("hba1c", 1)
	if err := dev.InstallModel("hba1c"); err != nil {
		t.Errorf("deployed model not installable: %v", err)
	}
	got, err := dev.Predict("hba1c", nil)
	if err != nil || got != 6 {
		t.Errorf("Predict = %f, %v", got, err)
	}
}

// TestKBInvalidationReachesClient is the cache-consistency weave: a KB
// update invalidates the server tier and pushes the invalidation down to
// enhanced clients, whose next read refetches from the origin.
func TestKBInvalidationReachesClient(t *testing.T) {
	p := newPlatform(t, false)
	dev, err := p.NewEnhancedClient("device-1", 16)
	if err != nil {
		t.Fatal(err)
	}
	listener, err := p.AttachInvalidationListener(dev, "device-1-cache")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(listener.Stop)

	key := "drug:" + p.KB.DrugIDs[0]
	if _, err := dev.QueryKB(key); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.QueryKB(key); err != nil {
		t.Fatal(err)
	}
	callsBefore := p.KBRemote.Calls()
	if callsBefore != 1 {
		t.Fatalf("remote calls before invalidation = %d, want 1", callsBefore)
	}
	if err := p.InvalidateKB(key); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for listener.Applied() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if listener.Applied() < 1 {
		t.Fatal("invalidation never reached the client")
	}
	// The next read misses both tiers and refetches.
	if _, err := dev.QueryKB(key); err != nil {
		t.Fatal(err)
	}
	if got := p.KBRemote.Calls(); got != callsBefore+1 {
		t.Errorf("remote calls after invalidation = %d, want %d", got, callsBefore+1)
	}
}

// TestSSIThroughPlatformLedger drives the self-sovereign identity flow
// against the platform's real provenance network.
func TestSSIThroughPlatformLedger(t *testing.T) {
	p := newPlatform(t, true)
	if p.Identity == nil {
		t.Fatal("ledger-enabled platform has no identity registry")
	}
	wallet, err := ssi.NewWallet()
	if err != nil {
		t.Fatal(err)
	}
	issuer, err := ssi.NewIssuer("state-authority")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := issuer.Issue(wallet.Commitment(), map[string]string{"role": "clinician"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Identity.Anchor(cred, issuer.Name(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	v := ssi.NewVerifier("portal", issuer.VerifyKey(), p.Identity)
	nym, proofKey := wallet.RegisterProofKey("portal")
	v.Enroll(nym, proofKey)
	nonce := v.Challenge(nym)
	pres, err := wallet.Present(cred, "portal", nonce, []string{"role"})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := v.Verify(pres)
	if err != nil {
		t.Fatalf("Verify over platform ledger: %v", err)
	}
	if attrs["role"] != "clinician" {
		t.Errorf("attrs = %v", attrs)
	}
	// The identity event is auditable on every peer, PII-free.
	for _, id := range p.Provenance.PeerIDs() {
		peer, _ := p.Provenance.Peer(id)
		regs := peer.Ledger().Audit(blockchain.AuditQuery{Type: blockchain.EventIdentityRegister})
		if len(regs) != 1 {
			t.Errorf("peer %s: %d identity registrations", id, len(regs))
		}
	}
}

// TestLedgerLessPlatformHasNoIdentity confirms the registry is absent
// when the blockchain is disabled.
func TestLedgerLessPlatformHasNoIdentity(t *testing.T) {
	p := newPlatform(t, false)
	if p.Identity != nil {
		t.Error("ledger-less platform has an identity registry")
	}
}

func TestSeedDemoProvidersAndMineFacts(t *testing.T) {
	p := newPlatform(t, false)
	p.SeedDemoProviders()
	nlu := p.Services.Providers("nlu")
	if len(nlu) != 3 {
		t.Fatalf("nlu providers = %v", nlu)
	}
	best, err := p.Services.Best("nlu", services.Criteria{WAccuracy: 1})
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	if best != "nlu-beta" { // the slow-but-accurate provider
		t.Errorf("accuracy-best = %q, want nlu-beta", best)
	}
	facts := p.MineFacts(100, 1)
	if len(facts) == 0 {
		t.Error("no facts mined from the corpus")
	}
}
