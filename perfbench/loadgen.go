package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/trace"
)

// conns is the generator's connection count: suud computes on one core,
// so two connections keep it busy without a second process competing for
// the other core.
const conns = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// outcome is what happened to one request of an open-loop phase.
type outcome struct {
	sent   bool
	late   time.Duration // how late the dispatcher released it
	sendAt time.Duration // phase offset at which a connection took it
	lat    time.Duration // due time → last response byte
	status int
	hash   uint64 // response body hash, key into phaseResult.bodies
	trace  string // X-Suu-Trace, when the server sent one
	err    error  // transport error or failed check
}

type phaseResult struct {
	reqs   []request
	out    []outcome
	bodies map[uint64][]byte // one copy of each distinct response body
	steal  []float64         // host steal share of each stealSlot, from the phase start
}

// stealSlot is the length of the slots in which a phase samples the host's
// steal share.
const stealSlot = time.Second

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runPhase drives one open-loop phase: each request is released at its due
// time whatever the state of earlier ones, and its latency runs from the
// due time, so a stall also charges the requests queued behind it. A
// request no connection could take within giveUp of its due time is left
// unsent and counts as failed.
func runPhase(hc *http.Client, url string, reqs []request, giveUp time.Duration) (*phaseResult, error) {
	timer, err := newDueTimer()
	if err != nil {
		return nil, err
	}
	defer timer.close()
	res := &phaseResult{reqs: reqs, out: make([]outcome, len(reqs)), bodies: map[uint64][]byte{}}
	// Sized to the phase so the dispatcher never blocks: the backlog of an
	// overloaded phase lives here, where the latency clock already runs.
	queue := make(chan int, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	sampled := sampleSteal(res)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &res.out[i]
				due := reqs[i].due
				now := time.Since(start)
				if now-due > giveUp {
					continue
				}
				o.sent, o.sendAt = true, now
				status, body, hdr, err := post(context.Background(), hc, url, reqs[i].body)
				o.lat = time.Since(start) - due
				o.status, o.err = status, err
				if err != nil {
					continue
				}
				o.trace = hdr.Get(trace.ResponseHeader)
				o.hash = hashBody(body)
				mu.Lock()
				if _, ok := res.bodies[o.hash]; !ok {
					res.bodies[o.hash] = body
				}
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		if err = timer.sleepUntil(start.Add(reqs[i].due)); err != nil {
			break
		}
		res.out[i].late = time.Since(start) - reqs[i].due
		queue <- i
	}
	close(queue)
	wg.Wait()
	sampled()
	return res, err
}

// sampleSteal appends the host steal share of every stealSlot to r.steal
// until the returned function is called, which waits for the sampler to
// end.
func sampleSteal(r *phaseResult) func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(stealSlot)
		defer tick.Stop()
		prev := cpuStat()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cur := cpuStat()
				r.steal = append(r.steal, stealShare(prev, cur))
				prev = cur
			}
		}
	}()
	return func() { close(stop); <-done }
}

// quietLatenciesMS returns the latencies, in ms, of the requests due in
// the least stolen half of the phase's slots. The slots are chosen by the
// host's steal share alone, never by the latencies, so every kind of slow
// request the program causes shows in them as often as in the whole
// phase. A failed or unsent request anywhere in the phase makes the
// result a single +Inf.
func (r *phaseResult) quietLatenciesMS() []float64 {
	lat := r.latenciesMS()
	slots := 0
	for i, l := range lat {
		if math.IsInf(l, 1) {
			return []float64{l}
		}
		slots = max(slots, r.slot(i)+1)
	}
	order := make([]int, slots)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return r.slotSteal(order[a]) < r.slotSteal(order[b]) })
	quiet := make([]bool, slots)
	for _, k := range order[:(slots+1)/2] {
		quiet[k] = true
	}
	var out []float64
	for i, l := range lat {
		if quiet[r.slot(i)] {
			out = append(out, l)
		}
	}
	return out
}

// slot is the stealSlot request i was due in.
func (r *phaseResult) slot(i int) int { return int(r.reqs[i].due / stealSlot) }

// slotSteal is slot k's steal share; a slot the sampler missed counts as
// wholly stolen.
func (r *phaseResult) slotSteal(k int) float64 {
	if k < len(r.steal) {
		return r.steal[k]
	}
	return 1
}

// dueTimer wakes the dispatcher at arrival due times through a Linux
// timerfd that the runtime's network poller watches. Runtime timers wake an
// idle process from epoll with millisecond resolution, and a thread blocked
// in nanosleep holds the only P at GOMAXPROCS=1 until sysmon retakes it;
// either would make the dispatcher (and the response readers) run up to a
// millisecond late. A readable timerfd wakes the poller within the kernel's
// timer slack while the connections keep being served.
type dueTimer struct {
	fd int
	f  *os.File
}

func newDueTimer() (*dueTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes the File pollable; f.Fd() would put
	// it back in blocking mode, so the raw descriptor is kept alongside.
	return &dueTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil blocks the calling goroutine until t.
func (dt *dueTimer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(dt.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := io.ReadFull(dt.f, expirations[:])
	return err
}

func (dt *dueTimer) close() { dt.f.Close() }

// check verifies every response of the phase and records each request as
// an operation in t: unsent, transport errors, non-200 statuses and wrong
// answers fail. Identical bodies for the same request content are
// verified once.
func (r *phaseResult) check(def *workloadDef, t *tally) {
	type memoKey struct{ hash, fp uint64 }
	memo := map[memoKey]error{}
	for i := range r.out {
		o := &r.out[i]
		if o.err == nil && o.sent {
			k := memoKey{o.hash, r.reqs[i].items[0].fp.Lo ^ uint64(r.reqs[i].items[0].seed)}
			err, ok := memo[k]
			if !ok {
				err = verify(def, r.reqs[i], o.status, r.bodies[o.hash])
				memo[k] = err
			}
			o.err = err
		}
		switch {
		case !o.sent:
			t.add(fmt.Errorf("request %d unsent", i))
		default:
			t.add(o.err)
		}
	}
}

func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status == http.StatusOK }

// latenciesMS returns per-request latency in ms; a failed or unsent
// request counts as beyond every limit.
func (r *phaseResult) latenciesMS() []float64 {
	l := make([]float64, len(r.out))
	for i := range r.out {
		if r.out[i].ok() {
			l[i] = float64(r.out[i].lat) / float64(time.Millisecond)
		} else {
			l[i] = math.Inf(1)
		}
	}
	return l
}

// lateMS returns how late the dispatcher released each request, in ms.
func (r *phaseResult) lateMS() []float64 {
	l := make([]float64, len(r.out))
	for i := range r.out {
		l[i] = float64(r.out[i].late) / float64(time.Millisecond)
	}
	return l
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
