package main

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ops, when positive, runs exactly that many measured cycles per
	// caller instead of a time budget (the tests use it).
	ops int
	// members overrides the workload's group size (tests only).
	members int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// cloudPutExtra slows every PUT of the simulated cloud (sensitivity
	// test); stores without cloud latency are unaffected.
	cloudPutExtra time.Duration
}

func defaultConfig() config {
	return config{seed: 1, seconds: 35, setups: 7}
}

const (
	// warmup cycles per caller run before measuring; they are checked but
	// not timed.
	warmup = 2
	// snapshotAt is the cycle after which store_bytes_per_member is taken,
	// so the figure is an exact count for a seed whatever the run length.
	snapshotAt = 40
)

// latencies are one caller's samples, in milliseconds.
type latencies struct{ add, revoke, read, visible []float64 }

func (l *latencies) merge(o latencies) {
	l.add = append(l.add, o.add...)
	l.revoke = append(l.revoke, o.revoke...)
	l.read = append(l.read, o.read...)
	l.visible = append(l.visible, o.visible...)
}

// laneResult is what one caller measured.
type laneResult struct {
	// lat[1] holds traced cycles, lat[0] untraced ones.
	lat       [2]latencies
	busy      time.Duration
	ops       int
	revokes   int
	attempted int64
	failed    int64
	failures  []string

	snapBytes, snapMembers int64
	snapped, snapLate      bool
}

func (r *laneResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// counters are the program's operation counters one caller's ops move.
type counters struct {
	g1, gt, zr   int64
	evictions    uint64
	repartitions int64
}

func (f *fixture) counters(ln *lane) counters {
	c := counters{evictions: ln.mgr.PageEvictions(), repartitions: ln.mgr.Repartitions()}
	if m := ln.encl.Scheme().Metrics; m != nil {
		c.g1, c.gt, c.zr = m.G1Exp.Load(), m.GTExp.Load(), m.ZrMul.Load()
	}
	return c
}

// seenKeys records every group key derived in a run: a revocation must
// yield a key never seen before.
type seenKeys struct {
	mu   sync.Mutex
	keys map[[kdf.KeySize]byte]bool
}

func (s *seenKeys) fresh(k [kdf.KeySize]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keys[k] {
		return false
	}
	s.keys[k] = true
	return true
}

// streamSeed derives a caller's op-stream seed from the run seed.
func streamSeed(seed int64, lane int) int64 { return seed*1_000_003 + int64(lane) + 1 }

func (f *fixture) runLane(cfg config, ln *lane, seen *seenKeys, acc *layerAcc, res *laneResult) {
	stream := &opStream{rng: mrand.New(mrand.NewSource(streamSeed(cfg.seed, ln.idx))), groups: ln.groups, sp: f.sp}
	var deadline time.Time
	var w0 watchCounters
	for i := 0; ; i++ {
		if i == warmup {
			deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
			w0 = f.watchCounters()
		}
		measuring := i >= warmup
		if cfg.ops > 0 {
			if i >= warmup+cfg.ops {
				break
			}
		} else if measuring && time.Now().After(deadline) {
			break
		}
		f.cycle(ln, stream.next(), cfg.trace && i%2 == 0, measuring, seen, acc, res)
		if i+1 == snapshotAt {
			f.snapshot(ln, res)
		}
	}
	if !res.snapped {
		res.snapLate = true
		f.snapshot(ln, res)
	}
	if f.watch != nil {
		acc.mu.Lock()
		acc.watch = f.watchCounters().sub(w0)
		acc.watchOps, acc.watchRevokes = res.ops, res.revokes
		acc.mu.Unlock()
	}
	res.attempted += int64(len(ln.groups))
	for _, bad := range f.checkMembers(ln) {
		res.fail("membership: %s", bad)
	}
}

func (f *fixture) snapshot(ln *lane, res *laneResult) {
	b, m, err := f.storeBytes(ln)
	if err != nil {
		res.attempted++
		res.fail("reading the store: %v", err)
		return
	}
	res.snapBytes, res.snapMembers, res.snapped = b, m, true
}

// cycle runs one op, times it, and then checks it: the watcher's new key,
// the sampled members' reads, key freshness and the revoked user's
// eviction. Only the op call itself is inside the op's latency.
func (f *fixture) cycle(ln *lane, o op, traced, measuring bool, seen *seenKeys, acc *layerAcc, res *laneResult) {
	traced = traced && measuring
	rec := f.rec
	rec.setOn(ln.idx, traced)
	defer rec.setOn(ln.idx, false)
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	g := o.group
	lat := &res.lat[b2i(traced)]

	var before counters
	if traced {
		before = f.counters(ln)
	}
	f.quiet.RLock()
	m0 := rec.mark(ln.idx)
	t0 := time.Now()
	var err error
	if o.revoke {
		err = ln.remove(ctx, g.name, o.user)
	} else {
		err = ln.add(ctx, g.name, o.user)
	}
	d := time.Since(t0)
	f.quiet.RUnlock()
	res.attempted++
	if err != nil {
		res.fail("%s %s in %s: %v", opName(o), o.user, g.name, err)
		return
	}
	if measuring {
		res.busy += d
		res.ops++
		if o.revoke {
			res.revokes++
			lat.revoke = append(lat.revoke, ms(d))
		} else {
			lat.add = append(lat.add, ms(d))
		}
	}
	if traced {
		acc.op(rec.between(ln.idx, m0, rec.mark(ln.idx)), t0, d, f.sp.cluster, f.counters(ln).sub(before))
	}

	want := g.key
	if o.revoke && f.watch != nil {
		res.attempted++
		key, at, err := f.watch.waitChange(g.key, time.Now().Add(waitTimeout))
		if err != nil {
			res.fail("watcher after revoking %s: %v", o.user, err)
			return
		}
		if measuring {
			lat.visible = append(lat.visible, ms(at.Sub(t0)))
		}
		if !seen.fresh(key) {
			res.fail("revoking %s in %s produced a group key seen before", o.user, g.name)
		}
		g.key, want = key, key
	}
	if len(o.readers) > 0 {
		f.checkReads(ctx, ln, o, want, d, traced, measuring, seen, acc, res)
	}
	if o.revoke {
		res.attempted++
		if err := f.checkEvicted(ctx, ln, g.name, o.user); err != nil {
			res.fail("%v", err)
		}
	}
}

// checkReads has the op's sampled members re-derive the key: after a
// revocation without a watcher the first read finds the new key, which must
// be fresh; every other read must match want. The reads wait for the other
// callers' ops to finish, and time only the Refresh itself.
func (f *fixture) checkReads(ctx context.Context, ln *lane, o op, want [kdf.KeySize]byte, opTime time.Duration, traced, measuring bool, seen *seenKeys, acc *layerAcc, res *laneResult) {
	f.quiet.Lock()
	defer f.quiet.Unlock()
	g := o.group
	lat := &res.lat[b2i(traced)]
	for k, ri := range o.readers {
		cli := ln.readers[g.name][ri]
		m := f.rec.mark(ln.idx)
		var p0 int64
		if traced {
			p0 = ln.readScheme.Metrics.Pairings.Load()
		}
		tr := time.Now()
		gk, err := cli.Refresh(ctx)
		dr := time.Since(tr)
		res.attempted++
		if err != nil {
			res.fail("read by %s in %s: %v", cli.ID(), g.name, err)
			continue
		}
		if measuring {
			lat.read = append(lat.read, ms(dr))
		}
		if traced {
			acc.read(f.rec.between(ln.idx, m, f.rec.mark(ln.idx)), dr, ln.readScheme.Metrics.Pairings.Load()-p0)
		}
		if o.revoke && f.watch == nil && k == 0 {
			// Without a watcher, a member reading right after the commit is
			// where the new key becomes visible.
			if measuring {
				lat.visible = append(lat.visible, ms(opTime+dr))
			}
			if gk == g.key {
				res.fail("revoking %s in %s did not change the group key", o.user, g.name)
			} else if !seen.fresh(gk) {
				res.fail("revoking %s in %s produced a group key seen before", o.user, g.name)
			}
			g.key, want = gk, gk
			continue
		}
		if gk != want {
			res.fail("%s derived a different key than the group's other members in %s", cli.ID(), g.name)
		}
	}
}

// checkEvicted provisions the revoked user's key and expects its Refresh to
// fail with ErrEvicted; any key derived is a security failure.
func (f *fixture) checkEvicted(ctx context.Context, ln *lane, group, user string) error {
	uk, err := f.extract(ln, user)
	if err != nil {
		return fmt.Errorf("provisioning revoked %s: %w", user, err)
	}
	cli, err := client.New(f.checkScheme, f.pk, user, uk, f.mem, group)
	if err != nil {
		return err
	}
	_, err = cli.Refresh(ctx)
	switch {
	case err == nil:
		return fmt.Errorf("SECURITY: revoked %s still derives the key of %s", user, group)
	case !errors.Is(err, client.ErrEvicted):
		return fmt.Errorf("revoked %s reading %s: want ErrEvicted, got %v", user, group, err)
	}
	return nil
}

func opName(o op) string {
	if o.revoke {
		return "revoke"
	}
	return "add"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// watchCounters are the watcher's client-side counters.
type watchCounters struct {
	wakeups, decrypts, hits, misses int64
}

func (a watchCounters) sub(b watchCounters) watchCounters {
	return watchCounters{a.wakeups - b.wakeups, a.decrypts - b.decrypts, a.hits - b.hits, a.misses - b.misses}
}

func (c counters) sub(b counters) counters {
	return counters{c.g1 - b.g1, c.gt - b.gt, c.zr - b.zr, c.evictions - b.evictions, c.repartitions - b.repartitions}
}

func (f *fixture) watchCounters() watchCounters {
	w := f.watch
	if w == nil {
		return watchCounters{}
	}
	st := w.cache.Stats()
	c := watchCounters{decrypts: w.cli.Decrypts(), hits: st.Hits, misses: st.Misses}
	if w.store != nil {
		c.wakeups = w.store.polls.Load()
	}
	return c
}

// layerAcc accumulates the traced cycles' per-layer figures over all
// callers.
type layerAcc struct {
	mu                                  sync.Mutex
	ops                                 int
	callerMs, routerMs, shardMs, selfMs float64
	routerN, shardN                     int
	ecallMs                             float64
	ecallN                              int
	storeMs                             float64
	storeN                              int
	storeByOp                           map[string]int
	bytesW                              int64
	conflicts, fenced, pageLoads        int
	cnt                                 counters

	reads             int
	readMs, fetchMs   float64
	readRT, readLists int
	pairings          int64
	// watch counts the watcher over every measured cycle, traced or not,
	// against the ops and revocations of its caller.
	watch                  watchCounters
	watchOps, watchRevokes int
}

func (a *layerAcc) op(spans []span, t0 time.Time, d time.Duration, viaCluster bool, c counters) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	a.callerMs += ms(d)
	a.cnt.g1 += c.g1
	a.cnt.gt += c.gt
	a.cnt.zr += c.zr
	a.cnt.evictions += c.evictions
	a.cnt.repartitions += c.repartitions
	var parents, children []interval
	for _, s := range spans {
		switch s.kind {
		case spanRouter:
			a.routerN++
			a.routerMs += ms(s.dur)
		case spanShard:
			a.shardN++
			a.shardMs += ms(s.dur)
			parents = append(parents, interval{s.start, s.end()})
		case spanEcall:
			a.ecallN++
			a.ecallMs += ms(s.dur)
			children = append(children, interval{s.start, s.end()})
		case spanStore:
			if s.handle != handleAdmin {
				continue
			}
			a.storeN++
			a.storeMs += ms(s.dur)
			a.storeByOp[s.name]++
			a.bytesW += int64(s.bytes)
			if s.conflict {
				a.conflicts++
			}
			if s.fenced {
				a.fenced++
			}
			if s.record && (s.name == "get" || s.name == "get_versioned") {
				a.pageLoads++
			}
			children = append(children, interval{s.start, s.end()})
		}
	}
	// The admin's self time is its span minus what ECALLs and store calls
	// cover: the shard handlers behind the router, or the caller's call.
	if !viaCluster {
		parents = []interval{{t0, t0.Add(d)}}
	}
	parents = union(parents)
	var total time.Duration
	for _, p := range parents {
		total += p.b.Sub(p.a)
	}
	a.selfMs += ms(total - covered(parents, union(children)))
}

func (a *layerAcc) read(spans []span, d time.Duration, pairings int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reads++
	a.readMs += ms(d)
	a.pairings += pairings
	for _, s := range spans {
		if s.kind != spanStore || s.handle != handleRead {
			continue
		}
		a.readRT++
		a.fetchMs += ms(s.dur)
		if s.name == "list" {
			a.readLists++
		}
	}
}

// metric is one named figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind a percentile (0 when not a percentile).
	N int
	// Ungated metrics are printed but not listed in BENCHMARK.json.
	Ungated bool
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	failures          []string
	notes             []string
	e2e               []metric // from the cycles of the run's own mode
	layer             []metric // traced runs only
	untracedE2E       []metric // traced runs: the untraced cycles' figures
}

// run sets the workload up cfg.setups times, measures it on the last set-up
// and computes every metric.
func run(cfg config) (*result, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	var (
		f          *fixture
		setupTimes []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.shutdown()
			f = nil
			runtime.GC()
		}
		var rec *recorder
		if cfg.trace {
			rec = newRecorder()
		}
		t0 := time.Now()
		f, err = setup(cfg, sp, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer f.shutdown()

	seen := &seenKeys{keys: make(map[[kdf.KeySize]byte]bool)}
	for _, ln := range f.lanes {
		for _, g := range ln.groups {
			seen.fresh(g.key)
		}
	}
	results := make([]*laneResult, len(f.lanes))
	acc := &layerAcc{storeByOp: make(map[string]int)}
	var wg sync.WaitGroup
	for i, ln := range f.lanes {
		results[i] = &laneResult{}
		wg.Add(1)
		go func(ln *lane, res *laneResult) {
			defer wg.Done()
			f.runLane(cfg, ln, seen, acc, res)
		}(ln, results[i])
	}
	wg.Wait()

	res := &result{}
	var (
		lat        [2]latencies
		busy       time.Duration
		ops        int
		bytes, mem int64
		peak       int
	)
	for i, lr := range results {
		lat[0].merge(lr.lat[0])
		lat[1].merge(lr.lat[1])
		busy += lr.busy
		ops += lr.ops
		bytes += lr.snapBytes
		mem += lr.snapMembers
		res.attempted += lr.attempted
		res.failed += lr.failed
		res.failures = append(res.failures, lr.failures...)
		if lr.snapLate {
			res.notes = append(res.notes, fmt.Sprintf("caller %d ran fewer than %d cycles: store_bytes_per_member taken at the end of the run", i, snapshotAt))
		}
		ln := f.lanes[i]
		for _, g := range ln.groups {
			if ps, err := ln.mgr.GroupPageStats(g.name); err == nil && ps.HighWater > peak {
				peak = ps.HighWater
			}
		}
	}
	res.correct = res.failed == 0

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	// Ops per second of the callers' time inside membership calls: the
	// closed loop's wall clock with the untimed checks between ops removed.
	opsPerS := 0.0
	if busy > 0 {
		opsPerS = float64(ops) / (busy.Seconds() / float64(len(f.lanes)))
	}
	perMember := 0.0
	if mem > 0 {
		perMember = float64(bytes) / float64(mem)
	}
	e2e := func(l latencies) []metric {
		return []metric{
			pct("add_ms.p50", l.add, 50),
			pct("add_ms.p90", l.add, 90),
			pct("revoke_ms.p50", l.revoke, 50),
			pct("revoke_ms.p90", l.revoke, 90),
			{Name: "admin_ops_per_s", Value: opsPerS, Unit: "1/s"},
			ungated(pct("read_ms.p50", l.read, 50)),
			pct("read_ms.p90", l.read, 90),
			pct("rekey_visible_ms.p50", l.visible, 50),
			pct("rekey_visible_ms.p90", l.visible, 90),
			{Name: "store_bytes_per_member", Value: perMember, Unit: "B"},
			{Name: "live_heap_mb", Value: heapMB, Unit: "MB"},
			{Name: "setup_s", Value: median(setupTimes), Unit: "s"},
		}
	}
	if cfg.trace {
		res.e2e = e2e(lat[1])
		res.untracedE2E = e2e(lat[0])
		res.layer = f.layerMetrics(acc, peak, lat)
	} else {
		res.e2e = e2e(lat[0])
	}
	return res, nil
}

// ecallNames are the call names the enclave's Obs hook reports.
var ecallNames = []string{"add_users", "create_group", "create_partition", "extract", "new_group_key", "rekey", "remove_users"}

// storeOps are the store calls the decorator distinguishes.
var storeOps = []string{"put", "put_if", "put_fenced", "get", "get_versioned", "list", "delete", "version"}

func (f *fixture) layerMetrics(a *layerAcc, peak int, lat [2]latencies) []metric {
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	perOp := func(x float64) float64 { return per(x, a.ops) }
	perRead := func(x float64) float64 { return per(x, a.reads) }
	perRekey := func(x int64) float64 { return per(float64(x), a.watchRevokes) }
	var netMs, gwMs float64
	if f.sp.cluster {
		netMs, gwMs = perOp(a.callerMs-a.routerMs), perOp(a.routerMs-a.shardMs)
	}
	out := []metric{
		{Name: "cluster.net_ms", Value: netMs, Unit: "ms"},
		{Name: "cluster.gateway_ms", Value: gwMs, Unit: "ms"},
		{Name: "cluster.shard_ms", Value: perOp(a.shardMs), Unit: "ms"},
		{Name: "cluster.forwards_per_op", Value: per(float64(a.shardN), a.routerN), Unit: "count"},
		{Name: "admin.self_ms", Value: perOp(a.selfMs), Unit: "ms"},
		{Name: "core.page_loads_per_op", Value: perOp(float64(a.pageLoads)), Unit: "count"},
		{Name: "core.page_evictions_per_op", Value: perOp(float64(a.cnt.evictions)), Unit: "count"},
		{Name: "core.resident_pages_peak", Value: float64(peak), Unit: "count"},
		{Name: "core.repartitions", Value: float64(a.cnt.repartitions), Unit: "count"},
		{Name: "enclave.ecall_ms_per_op", Value: perOp(a.ecallMs), Unit: "ms"},
		{Name: "enclave.ecalls_per_op", Value: perOp(float64(a.ecallN)), Unit: "count"},
	}
	byCall := make(map[string][]float64)
	for i := range f.lanes {
		for _, s := range f.rec.between(i, 0, f.rec.mark(i)) {
			if s.kind == spanEcall {
				byCall[s.name] = append(byCall[s.name], ms(s.dur))
			}
		}
	}
	for _, name := range ecallNames {
		out = append(out, pct("enclave."+name+".ms.p50", byCall[name], 50))
	}
	out = append(out,
		metric{Name: "ibbe.g1_exp_per_op", Value: perOp(float64(a.cnt.g1)), Unit: "count"},
		metric{Name: "ibbe.gt_exp_per_op", Value: perOp(float64(a.cnt.gt)), Unit: "count"},
		metric{Name: "ibbe.zr_mul_per_op", Value: perOp(float64(a.cnt.zr)), Unit: "count"},
		metric{Name: "ibbe.pairings_per_read", Value: perRead(float64(a.pairings)), Unit: "count"},
		metric{Name: "storage.wait_ms_per_op", Value: perOp(a.storeMs), Unit: "ms"},
		metric{Name: "storage.round_trips_per_op", Value: perOp(float64(a.storeN)), Unit: "count"},
	)
	for _, op := range storeOps {
		out = append(out, metric{Name: "storage." + op + ".per_op", Value: perOp(float64(a.storeByOp[op])), Unit: "count"})
	}
	out = append(out,
		metric{Name: "storage.poll.per_op", Value: per(float64(a.watch.wakeups), a.watchOps), Unit: "count"},
		metric{Name: "storage.bytes_written_per_op", Value: perOp(float64(a.bytesW)), Unit: "B"},
		metric{Name: "storage.cas_conflicts_per_op", Value: perOp(float64(a.conflicts)), Unit: "count"},
		metric{Name: "storage.fence_rejections_per_op", Value: perOp(float64(a.fenced)), Unit: "count"},
		metric{Name: "storage.round_trips_per_read", Value: perRead(float64(a.readRT)), Unit: "count"},
		metric{Name: "client.fetch_ms", Value: perRead(a.fetchMs), Unit: "ms"},
		metric{Name: "client.decrypt_ms", Value: perRead(a.readMs - a.fetchMs), Unit: "ms"},
		metric{Name: "client.rescans_per_read", Value: perRead(float64(a.readLists)), Unit: "count"},
		metric{Name: "client.watch_wakeups_per_rekey", Value: perRekey(a.watch.wakeups), Unit: "count"},
		metric{Name: "client.watch_decrypts_per_rekey", Value: perRekey(a.watch.decrypts), Unit: "count"},
		metric{Name: "client.cache.hit_ratio", Value: per(float64(a.watch.hits), int(a.watch.hits+a.watch.misses)), Unit: "ratio"},
		metric{Name: "trace_overhead.add_ms.p50", Value: percentile(lat[1].add, 50) - percentile(lat[0].add, 50), Unit: "ms", N: len(lat[1].add)},
		metric{Name: "trace_overhead.read_ms.p50", Value: percentile(lat[1].read, 50) - percentile(lat[0].read, 50), Unit: "ms", N: len(lat[1].read)},
	)
	return out
}

// ungated marks a metric too unsteady on a 2-vCPU machine to gate on:
// reads there alternate between a fast and a slow mode in phases of a few
// hundred milliseconds, in near-equal shares, so their median flips between
// the modes from run to run. The p90 sits in the slow mode and is gated.
func ungated(m metric) metric {
	m.Ungated = true
	return m
}

func pct(name string, xs []float64, p float64) metric {
	return metric{Name: name, Value: percentile(xs, p), Unit: "ms", N: len(xs)}
}

// percentile interpolates linearly between closest ranks; 0 without
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }
