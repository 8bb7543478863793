package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/consent"
	"healthcloud/internal/durable"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/ingest"
	"healthcloud/internal/monitor"
	"healthcloud/internal/multichain"
	"healthcloud/internal/shardlake"
	"healthcloud/internal/ssi"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// uploadBundle pushes one single-patient bundle through the pipeline
// and returns its terminal status plus the SHA-256 of the bytes sent.
func uploadBundle(t *testing.T, p *Platform, device string, key hckrypto.SymmetricKey, pid string) (ingest.Status, [32]byte) {
	t.Helper()
	p.Consents.Grant(pid, "study-1", consent.PurposeResearch, 0)
	b := fhir.NewBundle("collection")
	if err := b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: pid, Gender: "other"}); err != nil {
		t.Fatal(err)
	}
	raw, err := fhir.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := hckrypto.EncryptGCM(key, raw, []byte(device))
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Ingest.Upload(device, "study-1", enc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Ingest.WaitForUpload(id, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return st, sha256.Sum256(raw)
}

// TestPlatformSizes runs one body over every platform size: N=1 is a
// shardlake of one and a multichain of one, so the default platform
// must pass exactly what the benchmarked 4x2x4 one does. The zero-value
// row is the "default config works end to end" contract.
func TestPlatformSizes(t *testing.T) {
	sizes := []struct {
		name                       string
		shards, replicas, channels int // as configured
		wantShards, wantChannels   int // as built
		durable                    bool
	}{
		{"1x1x1-mem", 0, 0, 0, 1, 1, false},
		{"1x1x1-dir", 1, 1, 1, 1, 1, true},
		{"2x2x2-dir", 2, 2, 2, 2, 2, true},
		{"4x2x4-dir", 4, 2, 4, 4, 4, true},
	}
	for _, sz := range sizes {
		sz := sz
		t.Run(sz.name, func(t *testing.T) {
			cfg := Config{
				Tenant:      "mercy-health",
				KBDataset:   smallKB(t),
				LedgerPeers: []string{"hospital", "audit-svc"},
				Shards:      sz.shards, Replicas: sz.replicas, Channels: sz.channels,
				Telemetry: telemetry.New(), Monitor: true, MonitorInterval: -1,
			}
			if sz.durable {
				cfg.DataDir = t.TempDir()
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			closed := false
			defer func() {
				if !closed {
					p.Close()
				}
			}()

			// One storage plane, one trust plane, whatever the size.
			if p.Lake != store.Lake(p.ShardLake) {
				t.Fatal("Lake and ShardLake are different objects")
			}
			if got := len(p.ShardLake.Shards()); got != sz.wantShards {
				t.Fatalf("built %d shards, want %d", got, sz.wantShards)
			}
			chans := p.MultiChain.Channels()
			if len(chans) != sz.wantChannels {
				t.Fatalf("built %d channels, want %d", len(chans), sz.wantChannels)
			}
			if p.Provenance != chans[0].Net {
				t.Fatal("Provenance is not the anchor channel's network")
			}
			if sz.durable {
				for i := 0; i < sz.wantShards; i++ {
					if _, err := os.Stat(filepath.Join(cfg.DataDir, "shards", shardlake.ShardName(i))); err != nil {
						t.Errorf("shard directory: %v", err)
					}
				}
				for i := 0; i < sz.wantChannels; i++ {
					if _, err := os.Stat(filepath.Join(cfg.DataDir, "ledger", multichain.ChannelName(i))); err != nil {
						t.Errorf("channel directory: %v", err)
					}
				}
			}

			// Upload -> stored -> the bytes sent read back; Completed() and
			// the audit event exist the moment the waiter returns.
			key, err := p.Ingest.RegisterClient("device-1")
			if err != nil {
				t.Fatal(err)
			}
			// Reference ids are random, so keep uploading past 12 until every
			// channel's batcher has been routed one.
			var refs []string
			routed := make(map[string]bool)
			for i := 0; i < 12 || len(routed) < sz.wantChannels; i++ {
				if i == 200 {
					t.Fatalf("200 uploads reached only channels %v", routed)
				}
				st, sum := uploadBundle(t, p, "device-1", key, fmt.Sprintf("patient-%02d", i))
				if st.State != ingest.StateStored {
					t.Fatalf("upload %d: %+v", i, st)
				}
				if got := p.Ingest.Completed(); got < uint64(i+1) {
					t.Fatalf("Completed() = %d when upload %d's waiter returned", got, i)
				}
				if ev := p.Audit.Find(audit.Query{Service: "ingest", Action: "stored"}); len(ev) != i+1 {
					t.Fatalf("stored audit events = %d when upload %d's waiter returned", len(ev), i)
				}
				body, err := p.Lake.Get(st.RefID, "svc-storage")
				if err != nil {
					t.Fatalf("stored record unreadable: %v", err)
				}
				if sha256.Sum256(body) != sum {
					t.Fatalf("record %s does not hold the bytes sent", st.RefID)
				}
				refs = append(refs, st.RefID)
				routed[p.MultiChain.Route(st.RefID)] = true
				if trail := p.MultiChain.ProvenanceTrail(st.RefID); len(trail) != 1 || trail[0].Type != blockchain.EventDataReceipt {
					t.Errorf("provenance trail for %s = %+v", st.RefID, trail)
				}
			}
			uploads := len(refs)
			if got := p.MultiChain.TxCount(); got != uploads {
				t.Errorf("fabric tx count = %d, want %d", got, uploads)
			}

			// Consent provenance rides the same fabric.
			n, err := p.SyncConsentProvenance(20 * time.Second)
			if err != nil || n != uploads {
				t.Fatalf("consent sync = %d, %v; want %d", n, err, uploads)
			}
			if got := p.MultiChain.TxCount(); got != 2*uploads {
				t.Errorf("fabric tx count after consent sync = %d, want %d", got, 2*uploads)
			}

			// SSI anchors to, and queries, the partitioned ledger.
			issuer, err := ssi.NewIssuer("state-authority")
			if err != nil {
				t.Fatal(err)
			}
			wallet, err := ssi.NewWallet()
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
			commitment, err := cred.Commitment()
			if err != nil {
				t.Fatal(err)
			}
			if anchored, revoked := p.Identity.Status(commitment); !anchored || revoked {
				t.Errorf("identity status = anchored %v revoked %v", anchored, revoked)
			}

			// Every object on exactly R shards; every chain verifies; every
			// channel committed through its batcher.
			if objects, divergent := p.ShardLake.VerifyConvergence(); objects == 0 || len(divergent) != 0 {
				t.Errorf("convergence: %d objects, divergent %v", objects, divergent)
			}
			if err := p.MultiChain.VerifyAll(); err != nil {
				t.Errorf("VerifyAll: %v", err)
			}
			for _, ch := range chans {
				if ch.Batcher.Stats().Txs == 0 {
					t.Errorf("channel %s batcher committed nothing", ch.Name)
				}
			}

			// The same probe set at every size, plus one per shard/channel.
			want := []string{"data-lake", "provenance-ledger", "consensus-leader"}
			for i := 0; i < sz.wantShards; i++ {
				want = append(want, "data-lake/"+shardlake.ShardName(i))
			}
			for i := 0; i < sz.wantChannels; i++ {
				want = append(want, "provenance-ledger/"+multichain.ChannelName(i))
			}
			rep := p.Monitor.Prober().Probe()
			for _, name := range want {
				if _, ok := rep.Components[name]; !ok {
					t.Errorf("probe %q missing: %v", name, rep.Components)
				}
			}
			if _, ok := rep.Components["durable-storage"]; ok != sz.durable {
				t.Errorf("durable-storage probe present = %v, want %v", ok, sz.durable)
			}
			// Ordering clusters may still be electing on a young platform.
			for deadline := time.Now().Add(5 * time.Second); !rep.Ready && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
				rep = p.Monitor.Prober().Probe()
			}
			if !rep.Ready {
				t.Errorf("healthy platform not ready: %+v", rep)
			}

			if !sz.durable {
				return
			}
			hashes := p.MultiChain.StateHashes()
			p.Close()
			closed = true
			re, err := New(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got := re.MultiChain.StateHashes(); !reflect.DeepEqual(got, hashes) {
				t.Errorf("state hashes diverged across restart:\n got %v\nwant %v", got, hashes)
			}
			for _, ref := range refs {
				if _, err := re.Lake.Meta(ref); err != nil {
					t.Errorf("ref %s missing after reopen: %v", ref, err)
				}
			}
		})
	}
}

// TestLedgerProbeOneSweepPerRound pins the probe-cost fix: one probe
// round runs one submit-path check per channel, shared by the aggregate
// and the per-channel checks, and a submit path that is slow (not
// failing) degrades the aggregate without failing readiness.
func TestLedgerProbeOneSweepPerRound(t *testing.T) {
	const channels = 2
	faults := faultinject.NewRegistry(1)
	p, err := New(Config{
		Tenant:      "mercy-health",
		KBDataset:   smallKB(t),
		LedgerPeers: []string{"hospital", "audit-svc"},
		Channels:    channels,
		Faults:      faults,
		Telemetry:   telemetry.New(), Monitor: true, MonitorInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	faults.Enable(blockchain.FaultSubmit, faultinject.Fault{LatencyRate: 1, Latency: 400 * time.Millisecond})
	before := faults.Stats()[blockchain.FaultSubmit].Checks
	rep := p.Monitor.Prober().Probe()
	if got := faults.Stats()[blockchain.FaultSubmit].Checks - before; got != channels {
		t.Errorf("one probe round ran %d submit-path checks, want %d", got, channels)
	}
	if h := rep.Components["provenance-ledger"]; h.State != monitor.StateDegraded {
		t.Errorf("aggregate under 400ms submit latency = %v (%s), want Degraded", h.State, h.Detail)
	}
	for i := 0; i < channels; i++ {
		name := "provenance-ledger/" + multichain.ChannelName(i)
		if h := rep.Components[name]; h.State != monitor.StateDegraded {
			t.Errorf("%s under 400ms submit latency = %v (%s), want Degraded", name, h.State, h.Detail)
		}
	}
	// Slow is not dead: nothing but a still-electing ordering cluster may
	// hold readiness back.
	for name, h := range rep.Components {
		if h.State == monitor.StateDown && name != "consensus-leader" {
			t.Errorf("%s Down under a latency-only fault: %s", name, h.Detail)
		}
	}
}

// TestSingleShardOutageIsDown pins the one readiness rule: with every
// replica of some placement group unreachable the lake is Down — at
// N=1 that is any outage of the only shard.
func TestSingleShardOutageIsDown(t *testing.T) {
	faults := faultinject.NewRegistry(1)
	p, err := New(Config{
		Tenant: "mercy-health", KBDataset: smallKB(t), Faults: faults,
		Telemetry: telemetry.New(), Monitor: true, MonitorInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	point := shardlake.FaultPoint(shardlake.ShardName(0), "put")
	faults.Enable(point, faultinject.Fault{ErrorRate: 1})
	rep := p.Monitor.Prober().Probe()
	if h := rep.Components["data-lake"]; h.State != monitor.StateDown || rep.Ready {
		t.Errorf("data-lake with its only shard out = %v (%s), ready %v; want Down, not ready", h.State, h.Detail, rep.Ready)
	}
	faults.Disable(point)
	if rep := p.Monitor.Prober().Probe(); rep.Components["data-lake"].State != monitor.StateOK {
		t.Errorf("data-lake after recovery = %+v", rep.Components["data-lake"])
	}
}

// TestLegacyDataDirAdoption builds the directory layout a default-size
// platform wrote before every size used the N layout, then opens it at
// defaults: the lake and ledger are adopted by rename as shard-0 and
// ch-0, nothing is lost, and a second open finds nothing left to adopt.
func TestLegacyDataDirAdoption(t *testing.T) {
	dir := t.TempDir()
	peers := []string{"hospital", "audit-svc"}

	kms, err := hckrypto.NewKMS("mercy-health")
	if err != nil {
		t.Fatal(err)
	}
	lake := store.NewDataLake(kms, "svc-storage")
	log, err := durable.OpenLake(filepath.Join(dir, "lake"), lake, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lake.SetJournal(log)
	var refs []string
	for i := 0; i < 5; i++ {
		ref, err := lake.Put(fmt.Sprintf("patient-%d", i), []byte("record"), store.Meta{Tenant: "mercy-health", Group: "study-1"})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	log.Close()

	net, err := blockchain.NewNetwork("hcls-ledger", peers, 2)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := durable.OpenWALSnapshot(filepath.Join(dir, "ledger"), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range net.PeerIDs() {
		peer, err := net.Peer(id)
		if err != nil {
			t.Fatal(err)
		}
		peer.Ledger().SetWAL(wal)
	}
	for i, ref := range refs {
		tx := blockchain.NewTransaction(blockchain.EventDataReceipt, "ingest", ref, nil, map[string]string{"seq": fmt.Sprint(i)})
		if err := net.Submit(tx, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	peer, err := net.Peer(peers[0])
	if err != nil {
		t.Fatal(err)
	}
	stateHash := peer.Ledger().StateHash()
	net.Close()
	wal.Close()

	cfg := Config{Tenant: "mercy-health", KBDataset: smallKB(t), LedgerPeers: peers, DataDir: dir}
	for open := 1; open <= 2; open++ {
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		for _, ref := range refs {
			if _, err := p.Lake.Meta(ref); err != nil {
				t.Errorf("open %d: ref %s: %v", open, ref, err)
			}
		}
		if got := p.MultiChain.StateHashes()[multichain.ChannelName(0)]; got != stateHash {
			t.Errorf("open %d: ch-0 state hash %s, want the pre-adoption %s", open, got, stateHash)
		}
		if err := p.MultiChain.VerifyAll(); err != nil {
			t.Errorf("open %d: VerifyAll: %v", open, err)
		}
		p.Close()
		for _, gone := range []string{"lake", "ledger.legacy", filepath.Join("ledger", "seg-000001.log")} {
			if _, err := os.Stat(filepath.Join(dir, gone)); err == nil {
				t.Errorf("open %d: legacy path %s still present", open, gone)
			}
		}
	}

	// An adoption interrupted between the two ledger renames resumes.
	if err := os.Rename(filepath.Join(dir, "ledger", multichain.ChannelName(0)), filepath.Join(dir, "ledger.legacy")); err != nil {
		t.Fatal(err)
	}
	if err := adoptLegacyLayout(dir); err != nil {
		t.Fatalf("resuming interrupted adoption: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ledger", multichain.ChannelName(0), "seg-000001.log")); err != nil {
		t.Errorf("resumed adoption did not restore ch-0: %v", err)
	}

	// Both layouts at once is refused, not merged.
	if err := os.MkdirAll(filepath.Join(dir, "lake"), 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Error("data dir with both lake layouts opened")
	}
}

// TestPlacementResettle builds a 4-shard data dir whose records sit
// outside their ring placement and carries no placement marker — the
// layout an earlier ring left behind — then opens it at 4 shards × R=2:
// the first open moves every record onto exactly its placement and
// writes the marker, the second moves nothing, and a dir marked by a
// foreign ring is refused.
func TestPlacementResettle(t *testing.T) {
	dir := t.TempDir()
	kms, err := hckrypto.NewKMS("mercy-health")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 4)
	shards := make(map[string]*store.DataLake, 4)
	logs := make([]*durable.LakeLog, 0, 4)
	for i := range names {
		names[i] = shardlake.ShardName(i)
		lake := store.NewDataLake(kms, "svc-storage")
		log, err := durable.OpenLake(filepath.Join(dir, "shards", names[i]), lake, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lake.SetJournal(log)
		shards[names[i]], logs = lake, append(logs, log)
	}
	ring := shardlake.NewBalancedRing(names, 64, lakeRingSeed)
	sums := make(map[string][32]byte)
	for i := 0; i < 40; i++ {
		s, err := shards[names[0]].Seal(fmt.Sprintf("patient-%d", i), []byte(fmt.Sprint("record ", i)),
			store.Meta{Tenant: "mercy-health", Group: "study-1"})
		if err != nil {
			t.Fatal(err)
		}
		want := ring.Placement(s.RefID, 2)
		for _, name := range names {
			if name != want[0] && name != want[1] {
				if err := shards[name].PutSealed(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		sums[s.RefID] = sha256.Sum256(s.Ciphertext)
	}
	for _, log := range logs {
		log.Close()
	}

	cfg := Config{Tenant: "mercy-health", KBDataset: smallKB(t), DataDir: dir, Shards: 4, Replicas: 2}
	for open := 1; open <= 2; open++ {
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		if moved := p.ShardLake.Moved(); (open == 1) != (moved > 0) {
			t.Errorf("open %d moved %d objects", open, moved)
		}
		if objects, divergent := p.ShardLake.VerifyConvergence(); objects != len(sums) || divergent != nil {
			t.Errorf("open %d: %d objects, divergent %v", open, objects, divergent)
		}
		for ref := range sums {
			if _, err := p.Lake.Meta(ref); err != nil {
				t.Errorf("open %d: ref %s: %v", open, ref, err)
			}
		}
		p.Close()
	}
	if got, err := os.ReadFile(filepath.Join(dir, "shards", "placement")); err != nil || string(got) != placementMarker+"\n" {
		t.Fatalf("placement marker = %q, %v", got, err)
	}

	// Every copy sits on exactly its placement, byte-identical.
	for _, name := range names {
		lake := store.NewDataLake(kms, "svc-storage")
		log, err := durable.OpenLake(filepath.Join(dir, "shards", name), lake, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for ref, sum := range sums {
			want := ring.Placement(ref, 2)
			s, err := lake.GetSealed(ref)
			switch placed := name == want[0] || name == want[1]; {
			case placed && err != nil:
				t.Errorf("%s: ref %s missing from its placement: %v", name, ref, err)
			case placed && sha256.Sum256(s.Ciphertext) != sum:
				t.Errorf("%s: ref %s ciphertext changed in the move", name, ref)
			case !placed && err == nil:
				t.Errorf("%s: ref %s left outside its placement %v", name, ref, want)
			}
		}
		log.Close()
	}

	if err := os.WriteFile(filepath.Join(dir, "shards", "placement"), []byte("fnv1a\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Error("data dir marked by a foreign placement opened")
	}
}
