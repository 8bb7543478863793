package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"healthcloud/internal/fhir"
)

// Everything the platform is fed derives from the seed: patient
// attributes, bundle contents, which patient each upload carries, which
// read each reader issues and which knowledge-base key it asks for.

const (
	numGroups     = 4
	flipPatients  = 64 // patients reserved for consent flips; regular uploads never use them
	walkGroup     = "walk"
	smallObs      = 2
	largeObs      = 150
	kbInvalidateN = 4 // every Nth KB read is preceded by an invalidation, so misses never die out
)

func groupName(i int) string { return fmt.Sprintf("study-%d", i%numGroups) }

// region ties a state to a ZIP prefix, so the de-identified quasi-
// identifiers (gender, state, ZIP3) form a handful of large classes and
// any exported cohort is k-anonymous.
var regions = []struct{ state, zip3 string }{{"NY", "100"}, {"MA", "021"}, {"CA", "941"}}

var (
	familyNames = []string{"Okafor", "Lindqvist", "Moreau", "Tanaka", "Alvarez", "Novak", "Haddad", "Brennan"}
	givenNames  = []string{"Ada", "Bruno", "Chidi", "Dana", "Emre", "Freya", "Goran", "Hana"}
	labCodes    = []string{"HbA1c", "LDL cholesterol", "Systolic blood pressure", "Heart rate", "Serum creatinine", "Body mass index"}
	labUnits    = []string{"%", "mg/dL", "mmHg", "/min", "mg/dL", "kg/m2"}
)

// patient is one synthetic person with one pre-built bundle.
type patient struct {
	id     string
	group  string
	device string
	plain  []byte   // the FHIR bundle this patient's device uploads
	sum    [32]byte // SHA-256 of plain, what the lake must give back
}

// inputs is the generated population.
type inputs struct {
	cohort  []patient // stored once each during set-up, always with the small bundle
	regular []patient // upload targets of the run
	flips   []patient // consent-flip targets
	walker  patient   // the layer walk's own patient
	devices []string
}

func newPatient(rng *rand.Rand, id, group, device string, observations int) patient {
	reg := regions[rng.Intn(len(regions))]
	b := fhir.NewBundle("collection")
	p := &fhir.Patient{
		ResourceType: "Patient", ID: id,
		Gender:    []string{"male", "female"}[rng.Intn(2)],
		BirthDate: fmt.Sprintf("%04d-%02d-%02d", 1940+rng.Intn(70), 1+rng.Intn(12), 1+rng.Intn(28)),
		Name:      []fhir.HumanName{{Family: familyNames[rng.Intn(len(familyNames))], Given: []string{givenNames[rng.Intn(len(givenNames))]}}},
		Address:   []fhir.Address{{City: "Springfield", State: reg.state, PostalCode: fmt.Sprintf("%s%02d", reg.zip3, rng.Intn(100))}},
		Telecom:   []fhir.Telecom{{System: "phone", Value: fmt.Sprintf("555-01%02d", rng.Intn(100))}},
	}
	mustNil(b.AddResource(p))
	day := time.Date(2018, 1, 1, 8, 0, 0, 0, time.UTC)
	for k := 0; k < observations; k++ {
		c := rng.Intn(len(labCodes))
		mustNil(b.AddResource(&fhir.Observation{
			ResourceType: "Observation", ID: fmt.Sprintf("%s-obs-%d", id, k), Status: "final",
			Code:              fhir.CodeableConcept{Text: labCodes[c]},
			Subject:           fhir.Reference{Reference: "Patient/" + id},
			EffectiveDateTime: day.Add(time.Duration(rng.Intn(365*24)) * time.Hour).Format(time.RFC3339),
			ValueQuantity:     &fhir.Quantity{Value: float64(rng.Intn(20000)) / 100, Unit: labUnits[c]},
		}))
	}
	plain, err := fhir.Marshal(b)
	mustNil(err)
	return patient{id: id, group: group, device: device, plain: plain, sum: sha256.Sum256(plain)}
}

// generate builds the population for one run. observations sizes the
// regular patients' bundles; everyone else carries the small bundle:
// the preloaded cohort so that reads cost the same on every workload,
// flip and walker patients because their uploads are probes, not load.
func generate(seed int64, preload, patients, observations int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for d := 0; d < 8; d++ {
		in.devices = append(in.devices, fmt.Sprintf("device-%d", d))
	}
	for i := 0; i < preload; i++ {
		in.cohort = append(in.cohort, newPatient(rng, fmt.Sprintf("pre-%d-%d", seed, i),
			groupName(i), in.devices[i%len(in.devices)], smallObs))
	}
	for i := 0; i < patients; i++ {
		in.regular = append(in.regular, newPatient(rng, fmt.Sprintf("pt-%d-%d", seed, i),
			groupName(i), in.devices[i%len(in.devices)], observations))
	}
	for i := 0; i < flipPatients; i++ {
		in.flips = append(in.flips, newPatient(rng, fmt.Sprintf("flip-%d-%d", seed, i),
			groupName(i), in.devices[i%len(in.devices)], smallObs))
	}
	in.walker = newPatient(rng, fmt.Sprintf("walk-%d", seed), walkGroup, in.devices[0], smallObs)
	return in
}

// Read kinds. A stream carries them in the proportions of its mix.
type readKind uint8

const (
	readKB readKind = iota
	readModel
	readServices
	readBilling
	readStatus
	readAudit
	readExport // analytics: anonymized export of the cohort
	readFacts  // analytics: literature mining
	numReadKinds
)

var readNames = [numReadKinds]string{"kb", "model", "services", "billing", "status", "audit", "export", "facts"}

// readMix is a weighted mix of read kinds.
type readMix [numReadKinds]int

var (
	interactiveMix = readMix{readKB: 40, readModel: 10, readServices: 10, readBilling: 10, readStatus: 20, readAudit: 10}
	analyticsMix   = readMix{readExport: 1, readFacts: 1}
)

// withExport adds one export per n interactive reads.
func (m readMix) withExport(n int) readMix {
	total := 0
	for _, w := range m {
		total += w
	}
	for i := range m {
		m[i] *= n
	}
	m[readExport] = total
	return m
}

// readOp is one drawn read.
type readOp struct {
	kind       readKind
	arg        int  // KB key index or preloaded-upload index
	invalidate bool // KB only: drop the key first, so this read misses
}

// readStream draws reads for one closed-loop caller. Kinds follow the
// mix exactly: one cycle of the smooth weighted round-robin holds each
// kind as often as its weight and spreads it evenly, so any stretch of
// the stream carries the same share of cheap and costly reads whatever
// the seed, and per-operation costs compare run to run. The seed picks
// where in the cycle a stream starts, and every key and upload id.
type readStream struct {
	rng     *rand.Rand
	cycle   []readKind
	at      int
	zipf    *rand.Zipf
	preload int
	kbReads int
}

func newReadStream(seed int64, mix readMix, kbKeys, preload int) *readStream {
	rng := rand.New(rand.NewSource(seed))
	s := &readStream{rng: rng, preload: preload, zipf: rand.NewZipf(rng, 1.1, 1, uint64(kbKeys-1))}
	total := 0
	for _, w := range mix {
		total += w
	}
	var credit [numReadKinds]int
	for len(s.cycle) < total {
		best := 0
		for k, w := range mix {
			credit[k] += w
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		s.cycle = append(s.cycle, readKind(best))
	}
	s.at = rng.Intn(total)
	return s
}

func (s *readStream) next() readOp {
	op := readOp{kind: s.cycle[s.at%len(s.cycle)]}
	s.at++
	switch op.kind {
	case readKB:
		op.arg = int(s.zipf.Uint64())
		s.kbReads++
		op.invalidate = s.kbReads%kbInvalidateN == 0
	case readStatus:
		op.arg = s.rng.Intn(s.preload)
	}
	return op
}

// itemKind is what an open-loop schedule entry sends.
type itemKind uint8

const (
	itemUpload itemKind = iota
	itemFlip            // revoke, probe upload, and a re-grant once the probe has ended
)

// item is one open-loop send: due is its offset from the start of the
// run, and latency is timed from that moment, not from when the
// generator got round to it.
type item struct {
	due     time.Duration
	kind    itemKind
	patient int // index into regular (upload) or flips (flip)
}

// schedule merges constant-rate upload and flip arrivals over the run.
// Uploads pick a seeded patient among those eligible; flips walk the
// reserved patients in a seeded order.
func schedule(seed int64, length time.Duration, uploadRate, flipRate float64, eligible []int) []item {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []item
	if uploadRate > 0 {
		step := time.Duration(float64(time.Second) / uploadRate)
		for due := time.Duration(0); due < length; due += step {
			out = append(out, item{due: due, kind: itemUpload, patient: eligible[rng.Intn(len(eligible))]})
		}
	}
	if flipRate > 0 {
		step := time.Duration(float64(time.Second) / flipRate)
		order := rng.Perm(flipPatients)
		n := 0
		for due := step / 2; due < length; due += step {
			out = append(out, item{due: due, kind: itemFlip, patient: order[n%flipPatients]})
			n++
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// streamHash fingerprints everything a run feeds the platform: every
// bundle, the open-loop schedule, and the head of each closed-loop
// stream. Same workload and seed give the same hash.
func streamHash(w *workload, seed int64, length time.Duration, kbKeys int) string {
	h := sha256.New()
	in := generate(seed, w.preload, w.patients, w.observations)
	for _, set := range [][]patient{in.cohort, in.regular, in.flips, {in.walker}} {
		for _, p := range set {
			h.Write([]byte(p.id + "|" + p.group + "|" + p.device + "|"))
			h.Write(p.sum[:])
		}
	}
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for ph, tr := range []traffic{w.window, w.cross} {
		seed := seed + 1000*int64(ph) // as runWorkload seeds the two phases
		pop := [][]patient{in.regular, in.cohort}[ph]
		for _, it := range schedule(seed, length, tr.uploadRate, tr.flipRate, w.eligible(pop)) {
			put(int64(it.due))
			put(int64(it.kind))
			put(int64(it.patient))
		}
		for c, mix := range []readMix{tr.conn1Reads, tr.conn2Reads} {
			if mix == (readMix{}) {
				continue
			}
			s := newReadStream(seed+int64(c)+1, mix, kbKeys, w.preload)
			for i := 0; i < 4096; i++ {
				op := s.next()
				put(int64(op.kind))
				put(int64(op.arg))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func mustNil(err error) {
	if err != nil {
		panic(err)
	}
}
