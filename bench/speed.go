package main

// Host speed. The host is shared: its CPUs, caches, memory and hypervisor
// run slower or faster with what its other tenants do, and that drifts
// within seconds and over minutes, so runs of the same code read
// differently and a run cannot average the drift away. Each run therefore
// times a fixed reference task, the probe, while no request is in flight:
// after each set-up boot, and at the start, every probeEvery and at the end
// of the measured phase (the client pauses for it, and the pause is not
// counted).
//
// The probe does, in four parts of about 1 ms each on the reference host,
// the kinds of work a request makes the daemon and the bench do: compute
// over a few MiB (a walk along a random cycle, a sort, string-keyed map
// lookups), allocation of small objects, round trips over loopback TCP, and
// page faults on fresh memory. No single kind tracks the program: in short
// slices of first-contact and exists-search, the program's times moved 0.8
// to 1.6 times as much as any one part's, and 1.0 to 1.2 times as much as
// the four parts' together (bench/README.md).
//
// The host's slowdown against the reference host over an interval is the
// median time of the probes in it over referenceProbe. Each request's
// latency is reported divided by the slowdown within probeWindow of its
// start, and the set-up time by the slowdown over the set-up boots. The
// probe runs only standard-library code on data of its own, so no change to
// the program can move it; results.json keeps the values as measured beside
// the scaled ones.

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const (
	// referenceProbe is the probe's median time on the host the baseline
	// was measured on (2 CPUs, Intel Xeon).
	referenceProbe = 4 * time.Millisecond
	probeEvery     = 200 * time.Millisecond
	// probeWindow is how far before and after a request's start the probes
	// its slowdown is read from may lie: about 25 probes, enough for their
	// median to settle, and short enough to follow the host's drift within a
	// run (bench/README.md).
	probeWindow = 2500 * time.Millisecond

	probeWalk     = 3000    // steps along the random cycle
	probeSort     = 4000    // integers sorted
	probeKeys     = 1600    // map keys, each looked up twice
	probeObjects  = 3000    // small objects allocated
	probeTrips    = 70      // loopback round trips
	probeFaultMem = 3 << 19 // bytes of fresh memory touched, one page fault per 4 KiB
)

var probeParts = []string{"compute", "alloc", "loopback", "faults"}

// probeSink keeps the probe's work from being optimised away.
var probeSink int

// reference is the probe's data, and the loopback echo server its round
// trips go to.
type reference struct {
	cycle []uint32 // a random cycle through 4 MiB
	base  []int
	buf   []int // base, sorted in place
	keys  []string
	index map[string]int

	ln   net.Listener
	conn net.Conn // the probe's end of the echo connection
	done chan struct{}
}

func newReference() (*reference, error) {
	r := rand.New(rand.NewSource(1))
	d := &reference{cycle: make([]uint32, 1<<20), base: make([]int, probeSort), buf: make([]int, probeSort),
		index: map[string]int{}, done: make(chan struct{})}
	perm := r.Perm(len(d.cycle))
	for i, p := range perm {
		d.cycle[p] = uint32(perm[(i+1)%len(perm)])
	}
	for i := range d.base {
		d.base[i] = r.Int()
	}
	for i := 0; i < probeKeys; i++ {
		k := "key-" + strconv.Itoa(r.Intn(1e9))
		d.keys = append(d.keys, k)
		d.index[k] = i
	}

	var err error
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("probe echo server: %w", err)
	}
	go func() {
		defer close(d.done)
		c, err := d.ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	if d.conn, err = net.Dial("tcp", d.ln.Addr().String()); err != nil {
		d.ln.Close()
		<-d.done
		return nil, fmt.Errorf("probe echo server: %w", err)
	}
	return d, nil
}

// close stops the echo server and waits for it.
func (d *reference) close() {
	d.conn.Close()
	d.ln.Close()
	<-d.done
}

type probeNode struct {
	key  string
	vals []int
}

// run does the reference task once and returns each part's time.
func (d *reference) run() ([]time.Duration, error) {
	t0 := time.Now()
	j := uint32(0)
	for i := 0; i < probeWalk; i++ {
		j = d.cycle[j]
	}
	copy(d.buf, d.base)
	sort.Ints(d.buf)
	sum := 0
	for r := 0; r < 2; r++ {
		for _, k := range d.keys {
			sum += d.index[k]
		}
	}

	t1 := time.Now()
	objs := make(map[string]*probeNode)
	for i := 0; i < probeObjects; i++ {
		k := "n" + strconv.Itoa(i)
		objs[k] = &probeNode{key: k, vals: make([]int, 4)}
	}

	t2 := time.Now()
	msg := make([]byte, 32)
	for i := 0; i < probeTrips; i++ {
		if _, err := d.conn.Write(msg); err != nil {
			return nil, fmt.Errorf("probe round trip: %w", err)
		}
		if _, err := io.ReadFull(d.conn, msg); err != nil {
			return nil, fmt.Errorf("probe round trip: %w", err)
		}
	}

	t3 := time.Now()
	mem, err := syscall.Mmap(-1, 0, probeFaultMem, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe mmap: %w", err)
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1
	}
	if err := syscall.Munmap(mem); err != nil {
		return nil, fmt.Errorf("probe munmap: %w", err)
	}
	t4 := time.Now()

	probeSink += int(j) + sum + d.buf[0] + len(objs)
	return []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)}, nil
}

// hostSpeed is how fast the host ran one workload run.
type hostSpeed struct {
	ProbeMS  float64            `json:"probe_ms"` // median probe time
	PartsMS  map[string]float64 `json:"parts_ms"` // median time of each part
	Probes   int                `json:"probes"`
	Slowdown float64            `json:"slowdown"` // over the whole run, against the reference host
}

// probeReading is one probe: when it started and how long it took.
type probeReading struct {
	at time.Time
	ms float64
}

// speedMeter measures the host's speed over one run.
type speedMeter struct {
	// gate is held shared by every request in flight and exclusively by the
	// probe, so the probe runs while the daemon is idle.
	gate sync.RWMutex
	ref  *reference

	mu       sync.Mutex
	readings []probeReading // in the order the probes started
	parts    [][]float64    // per part, ms
	paused   time.Duration
	err      error // the first failed probe
}

func newSpeedMeter() (*speedMeter, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	return &speedMeter{ref: ref, parts: make([][]float64, len(probeParts))}, nil
}

// close stops the meter's echo server; the meter must not probe after it.
func (m *speedMeter) close() { m.ref.close() }

// probe times the reference task once, with no request in flight. Probes
// run one at a time.
func (m *speedMeter) probe() {
	m.gate.Lock()
	start := time.Now()
	parts, err := m.ref.run()
	d := time.Since(start)
	m.gate.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.paused += d
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		return
	}
	m.readings = append(m.readings, probeReading{at: start, ms: ms(d)})
	for i, p := range parts {
		m.parts[i] = append(m.parts[i], ms(p))
	}
}

// every probes at once, then once per interval until the returned stop is
// called, and once more in stop; stop returns once no probe is running.
func (m *speedMeter) every(interval time.Duration) (stop func()) {
	m.probe()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				m.probe()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		m.probe()
	}
}

// pausedFor returns the time the probes have held the gate so far.
func (m *speedMeter) pausedFor() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.paused
}

// slowdown returns how much slower than the reference host the host ran
// between from and to: the median time of the probes that started in that
// interval over referenceProbe. It is 0 when none did.
func (m *speedMeter) slowdown(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.readings
	lo := sort.Search(len(rs), func(i int) bool { return !rs[i].at.Before(from) })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].at.After(to) })
	if lo >= hi {
		return 0
	}
	xs := make([]float64, 0, hi-lo)
	for _, r := range rs[lo:hi] {
		xs = append(xs, r.ms)
	}
	return median(xs) / ms(referenceProbe)
}

// scaleLatencies divides the latency of each answered request, in ms, by the
// host's slowdown within probeWindow of the request's start. It returns the
// scaled latencies in order, and the ratio of their sum to the sum as
// measured, by which the phase's time scales.
func (m *speedMeter) scaleLatencies(outs []outcome) ([]float64, float64, error) {
	var (
		scaled            []float64
		sumRaw, sumScaled float64
	)
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		s := m.slowdown(o.start.Add(-probeWindow), o.start.Add(probeWindow))
		if s == 0 {
			return nil, 0, fmt.Errorf("no host probe within %v of a request", probeWindow)
		}
		l := ms(o.latency)
		scaled = append(scaled, l/s)
		sumRaw += l
		sumScaled += l / s
	}
	return scaled, frac(sumScaled, sumRaw), nil
}

// read returns the host's speed over every probe so far.
func (m *speedMeter) read() (hostSpeed, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return hostSpeed{}, m.err
	}
	if len(m.readings) == 0 {
		return hostSpeed{}, fmt.Errorf("the host speed probe never ran")
	}
	totals := make([]float64, len(m.readings))
	for i, r := range m.readings {
		totals[i] = r.ms
	}
	h := hostSpeed{ProbeMS: median(totals), PartsMS: map[string]float64{}, Probes: len(totals)}
	for i, name := range probeParts {
		h.PartsMS[name] = median(m.parts[i])
	}
	h.Slowdown = h.ProbeMS / ms(referenceProbe)
	return h, nil
}
