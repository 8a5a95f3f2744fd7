package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Instance shape shared by every workload.
const (
	machines  = 16
	jobs      = 64
	zipfS     = 0.9
	estTrials = 200
	estPolicy = "sem"
)

// Batch composition of batch-mixed: primed catalog hits, then fresh
// instances that must be computed.
const (
	batchHits    = 12
	batchUniform = 3
	batchChains  = 1
	batchItems   = batchHits + batchUniform + batchChains
)

// workloadDef is one workload's fixed operating point. rate and limit are
// recorded in BENCHMARK.json (perfbench_test.go keeps the two in step) and
// never re-derived within a run. The rates were set once, at about 45% of
// the peak measured by earlier runs. The limits hold the closed loop's
// p99, about twice the service time plus the host's CPU stalls, with room
// for those stalls: only a program that stalls for longer trips them.
type workloadDef struct {
	name    string
	path    string        // endpoint
	catalog int           // catalog specs (uniform, n=64/m=16)
	items   int           // items per request
	rate    float64       // fixed offered rate, requests/s
	limit   time.Duration // p99 latency limit of the peak
}

var workloads = map[string]*workloadDef{
	"batch-mixed": {
		name: "batch-mixed", path: "/v1/plan/batch", catalog: 64, items: batchItems,
		rate: 10, limit: 500 * time.Millisecond,
	},
	"estimate": {
		name: "estimate", path: "/v1/estimate", catalog: 8, items: 1,
		rate: 25, limit: 250 * time.Millisecond,
	},
}

// Phase identifiers keep every phase's random streams and fresh instance
// seeds disjoint.
const (
	phaseWindow   = 0
	phaseVerify   = 1
	phasePrime    = 2
	phaseTraced   = 3
	phaseSaturate = 100 // + part index
)

// subSeed derives an independent stream seed from the benchmark seed and
// a path of labels.
func subSeed(seed int64, labels ...int64) int64 {
	s := rng.New(seed)
	for _, l := range labels {
		s.Seed(int64(s.Uint64()) ^ l)
	}
	return int64(s.Uint64() >> 1)
}

// item is one instance a request carries, with what the answer must match.
type item struct {
	ins  *model.Instance
	raw  []byte // the instance's JSON as sent
	fp   sched.Fingerprint
	spec int   // catalog index, or -1 for a fresh instance
	seed int64 // estimate seed (estimate workload only)
}

// request is one HTTP request of a phase.
type request struct {
	due   time.Duration // offset from the phase start
	body  []byte
	items []item
}

// suite holds a workload's deterministic inputs for one seed.
type suite struct {
	def     *workloadDef
	seed    int64
	catalog []item
}

func newItem(spec workload.Spec, idx int) (item, error) {
	gen, err := workload.Generate(spec)
	if err != nil {
		return item{}, fmt.Errorf("generating %+v: %w", spec, err)
	}
	raw, err := json.Marshal(gen)
	if err != nil {
		return item{}, fmt.Errorf("encoding instance: %w", err)
	}
	// Fingerprint the instance as the server will see it: decoded from the
	// bytes on the wire.
	ins := new(model.Instance)
	if err := json.Unmarshal(raw, ins); err != nil {
		return item{}, fmt.Errorf("decoding instance: %w", err)
	}
	return item{ins: ins, raw: raw, fp: sched.FingerprintInstance(ins), spec: idx}, nil
}

func newSuite(def *workloadDef, seed int64) (*suite, error) {
	s := &suite{def: def, seed: seed}
	for i, spec := range workload.Catalog("uniform", machines, jobs, def.catalog, seed) {
		it, err := newItem(spec, i)
		if err != nil {
			return nil, err
		}
		s.catalog = append(s.catalog, it)
	}
	return s, nil
}

// fresh returns a never-repeated instance of the family for (phase, k).
func (s *suite) fresh(family string, phase, k int64) (item, error) {
	return newItem(workload.Spec{Family: family, M: machines, N: jobs, Seed: subSeed(s.seed, 7, phase, k)}, -1)
}

// encode builds the request body for its items.
func (s *suite) encode(items []item) []byte {
	var b bytes.Buffer
	switch s.def.path {
	case "/v1/plan/batch":
		b.WriteString(`{"items":[`)
		for i, it := range items {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"instance":`)
			b.Write(it.raw)
			b.WriteByte('}')
		}
		b.WriteString(`]}`)
	case "/v1/estimate":
		b.WriteString(`{"instance":`)
		b.Write(items[0].raw)
		b.WriteString(`,"policy":"` + estPolicy + `","trials":` + strconv.Itoa(estTrials) +
			`,"seed":` + strconv.FormatInt(items[0].seed, 10) + `}`)
	}
	return b.Bytes()
}

// phase builds the requests of one timed phase: evenly spaced arrivals at
// rate for dur, each request's content drawn from the phase's own streams.
func (s *suite) phase(phase int64, rate float64, dur time.Duration) ([]request, error) {
	pop, err := traffic.NewZipfian(zipfS, len(s.catalog), subSeed(s.seed, 2, phase))
	if err != nil {
		return nil, err
	}
	var reqs []request
	for k := int64(0); ; k++ {
		due := time.Duration(float64(k) / rate * float64(time.Second))
		if due >= dur {
			break
		}
		items, err := s.draw(phase, k, pop)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{due: due, body: s.encode(items), items: items})
	}
	return reqs, nil
}

// draw picks the items of request k of a phase.
func (s *suite) draw(phase, k int64, pop *traffic.Zipfian) ([]item, error) {
	switch s.def.path {
	case "/v1/plan/batch":
		items := make([]item, 0, batchItems)
		for i := 0; i < batchHits; i++ {
			items = append(items, s.catalog[pop.Next()])
		}
		for i := 0; i < batchUniform+batchChains; i++ {
			family := "uniform"
			if i >= batchUniform {
				family = "chains"
			}
			it, err := s.fresh(family, phase, k*batchItems+int64(i))
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
		return items, nil
	default: // estimate: round-robin over the catalog, fresh seed each time
		it := s.catalog[k%int64(len(s.catalog))]
		it.seed = subSeed(s.seed, 3, phase, k)
		return []item{it}, nil
	}
}

// serial returns the requests sent one at a time: the setup priming
// (phasePrime) or the fixed verification set (phaseVerify) measured after
// the timed window.
func (s *suite) serial(phase int64) []request {
	var reqs []request
	switch s.def.path {
	case "/v1/plan/batch":
		for lo := 0; lo < len(s.catalog); lo += batchItems {
			items := s.catalog[lo:min(lo+batchItems, len(s.catalog))]
			reqs = append(reqs, request{body: s.encode(items), items: items})
		}
	default:
		for i, it := range s.catalog {
			it.seed = subSeed(s.seed, 4, phase, int64(i))
			reqs = append(reqs, request{body: s.encode([]item{it}), items: []item{it}})
		}
	}
	return reqs
}
