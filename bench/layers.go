package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"syscall"
	"time"

	"healthcloud/internal/admission"
	"healthcloud/internal/anonymize"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/bus"
	"healthcloud/internal/consent"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/rbac"
	"healthcloud/internal/store"
)

// walkEvery paces the layer walk. Each step stores two upload
// equivalents (one through the handler, one by hand), so 25 steps/s is
// the most the walk may add without becoming the workload.
const walkEvery = 40 * time.Millisecond

// walker is the traced pass's extra closed-loop caller: each step pushes
// one generated input through every layer's public functions on the
// live platform, in pipeline order, with a span around each call.
type walker struct {
	e     *engine
	c     *conn
	sub   *bus.Subscription
	table *anonymize.Table // the preloaded cohort's quasi-identifiers
	kbHot string
	kbMis string

	steps    int
	uploads  []upload
	puts     int       // records put into the lake by hand
	fsyncUS  []float64 // durations of the journals' latest fsyncs, sampled each step
	problems []string
}

const (
	hopTopic      = "bench.hop"
	walkFlipGroup = "walk-flip" // a group nothing uploads to, flipped directly on the consent service
)

func newWalker(e *engine, c *conn) (*walker, error) {
	sub, err := e.inst.p.Bus.Subscribe(hopTopic, "bench-walker")
	if err != nil {
		return nil, err
	}
	w := &walker{e: e, c: c, sub: sub, kbHot: e.kbKey[0], kbMis: e.kbKey[len(e.kbKey)-1],
		table: &anonymize.Table{QuasiIDs: []string{"gender", "state", "zip"}}}
	for i := range e.data.cohort {
		pt := &e.data.cohort[i]
		if pt.group != exportedGroup {
			continue
		}
		b, err := fhir.ParseBundle(pt.plain)
		if err != nil {
			return nil, err
		}
		res, err := b.Resources()
		if err != nil {
			return nil, err
		}
		deid := anonymize.DeidentifyPatient(res[0].(*fhir.Patient), nil)
		w.table.Rows = append(w.table.Rows, anonymize.Record{"gender": deid.Gender,
			"state": deid.Address[0].State, "zip": deid.Address[0].PostalCode})
	}
	p := e.inst.p
	p.Consents.Grant(e.data.walker.id, walkFlipGroup, consent.PurposeResearch, 0)
	return w, nil
}

func (w *walker) run(end time.Time) {
	for next := time.Now(); next.Before(end); next = next.Add(walkEvery) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		} else {
			next = time.Now() // a slow step does not owe the skipped ones
		}
		if err := w.step(); err != nil && len(w.problems) < 5 {
			w.problems = append(w.problems, err.Error())
		}
	}
}

// step is one walk. A layer that errors ends the step: later layers
// need its output.
func (w *walker) step() error {
	e, p := w.e, w.e.inst.p
	pt := &e.data.walker
	op := e.opSeq.Add(1)
	timed := e.inWindow(time.Now())
	rec := e.rec
	if !timed {
		rec = nil
	}
	root := rec.reserve("walk", time.Now(), op)
	defer func() { rec.finish(root, time.Now()) }()
	var stepErr error
	call := func(name string, f func() error) bool {
		if stepErr != nil {
			return false
		}
		start := time.Now()
		err := f()
		rec.add(name, start, time.Now(), root, op)
		if err != nil {
			stepErr = fmt.Errorf("walk %s: %w", name, err)
		}
		return err == nil
	}
	// serve calls a route in-process, on a recorder; reply holds its body.
	var reply []byte
	serve := func(method, path string, body []byte, want int) func() error {
		return func() error {
			var rdr io.Reader
			if body != nil {
				rdr = bytes.NewReader(body)
			}
			req := httptest.NewRequest(method, path, rdr)
			req.Header.Set("Authorization", "Bearer "+w.c.token)
			rr := httptest.NewRecorder()
			e.inst.api.ServeHTTP(rr, req)
			if rr.Code != want {
				return fmt.Errorf("%s %s: status %d", method, path, rr.Code)
			}
			reply = rr.Body.Bytes()
			return nil
		}
	}
	modelPath := "/api/v1/models/" + modelName

	// httpapi, rbac, admission: the guard every request pays.
	call("httpapi.guard", serve("GET", modelPath, nil, http.StatusOK))
	call("httpapi.socket", func() error {
		status, _, err := w.c.do("GET", modelPath, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return err
	})
	call("rbac.check", func() error {
		return p.CheckAccess(adminUser, rbac.ActionRead, "models", rbac.Scope{Tenant: tenant}, "")
	})
	call("admission.admit", func() error { return p.Admission.Admit(tenant, admission.ClassNormal).Err() })

	// The upload chain, stage by stage, on the walker's own bundle.
	enc, err := hckrypto.EncryptGCM(e.inst.keys[pt.device], pt.plain, []byte(pt.device))
	if err != nil {
		return err
	}
	if call("httpapi.upload_handler", serve("POST", uploadPath(pt), enc, http.StatusAccepted)) {
		// A real upload: the pipeline stores it, and the run checks it.
		var accepted uploadReply
		if err := json.Unmarshal(reply, &accepted); err != nil {
			return err
		}
		e.accepted.Add(1)
		w.uploads = append(w.uploads, upload{id: accepted.UploadID, patient: pt, start: time.Now(), walk: true, timed: timed})
	}
	call("bus.hop", func() error {
		if _, err := p.Bus.Publish(hopTopic, []byte("hop")); err != nil {
			return err
		}
		m, err := w.sub.Receive(opTimeout)
		if err != nil {
			return err
		}
		return w.sub.Ack(m.ID)
	})
	var plain []byte
	call("hckrypto.decrypt", func() (err error) {
		plain, err = hckrypto.DecryptGCM(e.inst.keys[pt.device], enc, []byte(pt.device))
		return err
	})
	var bundle *fhir.Bundle
	call("fhir.parse", func() (err error) { bundle, err = fhir.ParseBundle(plain); return err })
	call("scan.scan", func() error { _, err := p.Scanner.Scan(pt.device, plain); return err })
	call("consent.check", func() error { return p.Consents.Check(pt.id, pt.group, consent.PurposeResearch) })
	var deid *fhir.Bundle
	call("anonymize.deidentify", func() error {
		res, err := bundle.Resources()
		if err != nil {
			return err
		}
		deid = fhir.NewBundle(bundle.Type)
		for _, r := range res {
			if person, ok := r.(*fhir.Patient); ok {
				r = anonymize.DeidentifyPatient(person, nil)
			}
			if err := deid.AddResource(r); err != nil {
				return err
			}
		}
		return nil
	})
	var deidJSON []byte
	call("fhir.marshal", func() (err error) { deidJSON, err = fhir.Marshal(deid); return err })
	var ref string
	call("shardlake.put", func() (err error) {
		ref, err = p.Lake.Put(pt.id, plain, store.Meta{ContentType: "fhir+json;identified", Tenant: tenant, Group: pt.group})
		return err
	})
	if call("shardlake.put", func() error {
		_, err := p.Lake.Put(pt.id, deidJSON, store.Meta{ContentType: "fhir+json;deidentified", Tenant: tenant,
			Group: pt.group, Tags: map[string]string{"identified_ref": ref}})
		return err
	}) {
		w.puts += 2
	}
	if timed && stepErr == nil {
		// Those puts waited on real fsyncs; each journal remembers how
		// long its latest one took on this sandbox's disk.
		for _, log := range p.LakeLogs {
			w.fsyncUS = append(w.fsyncUS, float64(log.Stats().LastFsync)/float64(time.Microsecond))
		}
	}
	tx := blockchain.NewTransaction(blockchain.EventDataReceipt, "bench-walker", ref,
		hckrypto.SaltedHash([]byte(ref), plain), map[string]string{"group": pt.group})
	call("ledger.endorse", func() error {
		throwaway := tx
		return p.Provenance.EndorseAll(&throwaway)
	})
	call("ledger.submit", func() error { return p.MultiChain.Submit(tx, 10*time.Second) })

	// The read side: lake reads, k-anonymity, cache tiers, scans.
	call("shardlake.get", func() error { _, err := p.Lake.Get(ref, storageSelf); return err })
	call("shardlake.list", func() error {
		if n := len(p.Lake.List(tenant, exportedGroup)); n < 2*len(w.table.Rows) {
			return fmt.Errorf("listed %d records of %s, want at least %d", n, exportedGroup, 2*len(w.table.Rows))
		}
		return nil
	})
	call("anonymize.verify", func() error { _, err := p.Verifier.Verify(w.table); return err })
	call("consent.flip", func() error {
		if p.Consents.Revoke(pt.id, walkFlipGroup, consent.PurposeResearch) != 1 {
			return errors.New("revoke found no active grant")
		}
		p.Consents.Grant(pt.id, walkFlipGroup, consent.PurposeResearch, 0)
		return nil
	})
	call("kbcache.hit", func() error { _, err := p.KBCache.Get(w.kbHot); return err })
	p.KBCache.Invalidate(w.kbMis)
	call("kbcache.miss", func() error { _, err := p.KBCache.Get(w.kbMis); return err })
	call("audit.find", func() error {
		if len(p.Audit.Find(audit.Query{Service: "ingest", Action: "register-client"})) == 0 {
			return errors.New("no register-client events")
		}
		return nil
	})
	call("metering.bill", func() error {
		now := time.Now().UTC()
		p.Meter.BillFor(tenant, now.Add(-30*24*time.Hour), now.Add(time.Second))
		return nil
	})
	call("monitor.readyz", serve("GET", "/readyz", nil, http.StatusOK))
	if timed && stepErr == nil {
		w.steps++
	}
	return stepErr
}

// counters is a point-in-time reading of the public accessors the
// per-layer and per-op metrics are differences of.
type counters struct {
	cpu        time.Duration
	totalAlloc uint64
	gcPause    time.Duration
	appends    uint64
	fsyncs     uint64
	disk       int64
	commits    uint64
	batched    uint64
	fallbacks  uint64
	kbHits     uint64
	kbMisses   uint64
	kbOrigin   uint64
	retries    uint64
	dead       uint64
	repairs    uint64
	rejected   uint64
	stored     uint64
}

func (c counters) sub(o counters) counters {
	return counters{
		cpu: c.cpu - o.cpu, totalAlloc: c.totalAlloc - o.totalAlloc, gcPause: c.gcPause - o.gcPause,
		appends: c.appends - o.appends, fsyncs: c.fsyncs - o.fsyncs, disk: c.disk - o.disk,
		commits: c.commits - o.commits, batched: c.batched - o.batched, fallbacks: c.fallbacks - o.fallbacks,
		kbHits: c.kbHits - o.kbHits, kbMisses: c.kbMisses - o.kbMisses, kbOrigin: c.kbOrigin - o.kbOrigin,
		retries: c.retries - o.retries, dead: c.dead - o.dead, repairs: c.repairs - o.repairs,
		rejected: c.rejected - o.rejected, stored: c.stored - o.stored,
	}
}

// processCounters reads the process-wide part: CPU time, bytes
// allocated, GC pause.
func processCounters() (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.totalAlloc, c.gcPause = mem.TotalAlloc, time.Duration(mem.PauseTotalNs)
	return c, nil
}

func (in *instance) readCounters(dir string) (counters, error) {
	c, err := processCounters()
	if err != nil {
		return c, err
	}
	p := in.p
	for _, log := range p.LakeLogs {
		st := log.Stats()
		c.appends, c.fsyncs = c.appends+st.Appends, c.fsyncs+st.Fsyncs
	}
	for _, wal := range p.MultiChain.WALs() {
		st := wal.Stats()
		c.appends, c.fsyncs = c.appends+st.Appends, c.fsyncs+st.Fsyncs
	}
	if c.disk, err = dirBytes(dir); err != nil {
		return c, err
	}
	for _, ch := range p.MultiChain.Channels() {
		st := ch.Batcher.Stats()
		c.commits, c.batched, c.fallbacks = c.commits+st.Commits, c.batched+st.Txs, c.fallbacks+st.Fallbacks
	}
	for _, tier := range p.KBCache.TierStats() {
		c.kbHits, c.kbMisses = c.kbHits+tier.Hits, c.kbMisses+tier.Misses
	}
	c.kbOrigin = p.KBRemote.Calls()
	c.retries, c.dead, c.repairs = p.Ingest.Retries(), p.Ingest.DeadLettered(), p.ShardLake.Repairs()
	for name, v := range p.Telemetry.Registry().Snapshot().Counters {
		switch {
		case strings.HasPrefix(name, "admission_rejected_total"):
			c.rejected += v
		case name == "ingest_stored_total":
			c.stored = v
		}
	}
	return c, nil
}

// gauges are the values sampled at 10 Hz through the window.
type gauges struct {
	queueDepthMax int
	goroutinesMax int
}

func (in *instance) sample(stop <-chan struct{}, out *gauges) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		out.queueDepthMax = max(out.queueDepthMax, in.p.Ingest.QueueDepth())
		out.goroutinesMax = max(out.goroutinesMax, runtime.NumGoroutine())
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}
