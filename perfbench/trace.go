package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// The traced run observes the program only through its public surfaces,
// from the benchmark's own files: a timing storage.Store decorator on every
// store handle and http.Handler wrappers around the router and each shard
// (this file), the enclave's Obs ECALL hook, and, in run.go,
// ibbe.Scheme.Metrics counters, the core.Manager page counters and the
// timed calls the callers make. Spans are kept in memory, one slice per
// caller ("lane"), and attributed to lanes by group name: every group is
// driven by exactly one caller.

type spanKind uint8

const (
	spanRouter spanKind = iota
	spanShard
	spanEcall
	spanStore
)

// handle names a store handle, so a span says which component waited.
type handle uint8

const (
	handleAdmin handle = iota // the administrator's (or every shard's) handle
	handleRead                // the readers' handle
	handleWatch               // the watcher's handle
)

type span struct {
	kind   spanKind
	handle handle
	name   string // ECALL name or store op
	start  time.Time
	dur    time.Duration
	bytes  int
	// record marks a store call on a partition record (not a reserved
	// object such as the member index or sealed key).
	record   bool
	conflict bool
	fenced   bool
}

func (s span) end() time.Time { return s.start.Add(s.dur) }

type laneSpans struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// recorder holds the spans. A nil recorder records nothing and its wrappers
// return what they wrap.
type recorder struct {
	lanes     []*laneSpans
	groupLane map[string]int // fixed before any group operation
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) setGroups(groupLane map[string]int, lanes int) {
	if r == nil {
		return
	}
	r.groupLane = groupLane
	r.lanes = make([]*laneSpans, lanes)
	for i := range r.lanes {
		r.lanes[i] = &laneSpans{}
	}
}

// leaseDirPrefix is where the cluster keeps a group's lease record.
const leaseDirPrefix = "_cluster_lease/"

func (r *recorder) laneOf(dir string) int {
	if r == nil {
		return -1
	}
	if l, ok := r.groupLane[strings.TrimPrefix(dir, leaseDirPrefix)]; ok {
		return l
	}
	return -1
}

func (r *recorder) setOn(lane int, on bool) {
	if r != nil {
		r.lanes[lane].on.Store(on)
	}
}

func (r *recorder) on(lane int) bool {
	return r != nil && lane >= 0 && r.lanes[lane].on.Load()
}

func (r *recorder) anyOn() bool {
	if r == nil {
		return false
	}
	for _, l := range r.lanes {
		if l.on.Load() {
			return true
		}
	}
	return false
}

func (r *recorder) add(lane int, s span) {
	l := r.lanes[lane]
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// mark returns the lane's span count: spans recorded between two marks
// ended between them.
func (r *recorder) mark(lane int) int {
	if r == nil {
		return 0
	}
	l := r.lanes[lane]
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

func (r *recorder) between(lane, from, to int) []span {
	l := r.lanes[lane]
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans[from:to]...)
}

// ecallHook is installed as IBBEEnclave.Obs; the hook fires when an ECALL
// returns, with its duration.
func (r *recorder) ecallHook(lane int) func(call string, seconds float64) {
	return func(call string, seconds float64) {
		if !r.on(lane) {
			return
		}
		d := time.Duration(seconds * float64(time.Second))
		r.add(lane, span{kind: spanEcall, name: call, start: time.Now().Add(-d), dur: d})
	}
}

// handler times an admin request through h. The lane comes from the
// request's group, read from the JSON body as the router and shard do.
func (r *recorder) handler(kind spanKind, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		lane := -1
		if req.Method == http.MethodPost && strings.HasPrefix(req.URL.Path, "/admin/") && r.anyOn() {
			body, err := io.ReadAll(req.Body)
			if err == nil {
				var b struct {
					Group string `json:"group"`
				}
				if json.Unmarshal(body, &b) == nil {
					lane = r.laneOf(b.Group)
				}
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		if !r.on(lane) {
			h.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		r.add(lane, span{kind: kind, start: t0, dur: time.Since(t0)})
	})
}

// tracedStore is the timing decorator. extraPut adds latency to every PUT,
// inside the timed call: the sensitivity test's model of a slower cloud.
type tracedStore struct {
	inner    storage.Store
	rec      *recorder
	handle   handle
	extraPut time.Duration
	polls    atomic.Int64
}

var (
	_ storage.Store             = (*tracedStore)(nil)
	_ storage.ConditionalGetter = (*tracedStore)(nil)
)

func (s *tracedStore) do(dir, name, op string, n int, put bool, call func() error) error {
	if put && s.extraPut > 0 {
		inner := call
		call = func() error {
			time.Sleep(s.extraPut)
			return inner()
		}
	}
	lane := s.rec.laneOf(dir)
	if !s.rec.on(lane) {
		return call()
	}
	t0 := time.Now()
	err := call()
	s.rec.add(lane, span{
		kind: spanStore, handle: s.handle, name: op, start: t0, dur: time.Since(t0), bytes: n,
		record:   name != "" && !strings.HasPrefix(name, "_"),
		conflict: errors.Is(err, storage.ErrVersionConflict),
		fenced:   errors.Is(err, storage.ErrFenced),
	})
	return err
}

func (s *tracedStore) Put(ctx context.Context, dir, name string, data []byte) error {
	return s.do(dir, name, "put", len(data), true, func() error { return s.inner.Put(ctx, dir, name, data) })
}

func (s *tracedStore) PutIf(ctx context.Context, dir, name string, data []byte, v uint64) error {
	return s.do(dir, name, "put_if", len(data), true, func() error { return s.inner.PutIf(ctx, dir, name, data, v) })
}

func (s *tracedStore) PutFenced(ctx context.Context, dir, name string, data []byte, v, epoch uint64) error {
	return s.do(dir, name, "put_fenced", len(data), true, func() error { return s.inner.PutFenced(ctx, dir, name, data, v, epoch) })
}

func (s *tracedStore) Delete(ctx context.Context, dir, name string) error {
	return s.do(dir, name, "delete", 0, false, func() error { return s.inner.Delete(ctx, dir, name) })
}

func (s *tracedStore) Get(ctx context.Context, dir, name string) (data []byte, err error) {
	err = s.do(dir, name, "get", 0, false, func() error {
		data, err = s.inner.Get(ctx, dir, name)
		return err
	})
	return data, err
}

func (s *tracedStore) GetVersioned(ctx context.Context, dir, name string) (data []byte, v uint64, err error) {
	err = s.do(dir, name, "get_versioned", 0, false, func() error {
		data, v, err = s.inner.GetVersioned(ctx, dir, name)
		return err
	})
	return data, v, err
}

func (s *tracedStore) GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) (data []byte, v uint64, err error) {
	err = s.do(dir, name, "get_versioned", 0, false, func() error {
		data, v, err = storage.GetVersionedIf(ctx, s.inner, dir, name, ifVersion)
		return err
	})
	return data, v, err
}

func (s *tracedStore) List(ctx context.Context, dir string) (names []string, err error) {
	err = s.do(dir, "", "list", 0, false, func() error {
		names, err = s.inner.List(ctx, dir)
		return err
	})
	return names, err
}

func (s *tracedStore) Version(ctx context.Context, dir string) (v uint64, err error) {
	err = s.do(dir, "", "version", 0, false, func() error {
		v, err = s.inner.Version(ctx, dir)
		return err
	})
	return v, err
}

// Poll is not timed: a long poll blocks until the directory changes, which
// is waiting for the writer, not for the store. Wake-ups are counted.
func (s *tracedStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	v, err := s.inner.Poll(ctx, dir, since)
	if err == nil {
		s.polls.Add(1)
	}
	return v, err
}

// interval is a half-open time range [a, b).
type interval struct{ a, b time.Time }

// union merges overlapping intervals.
func union(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a.Before(iv[j].a) })
	out := []interval{iv[0]}
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if !x.a.After(last.b) {
			if x.b.After(last.b) {
				last.b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered returns how much of parents the children cover (both merged).
func covered(parents, children []interval) time.Duration {
	var d time.Duration
	for _, p := range parents {
		for _, c := range children {
			a, b := p.a, p.b
			if c.a.After(a) {
				a = c.a
			}
			if c.b.Before(b) {
				b = c.b
			}
			if b.After(a) {
				d += b.Sub(a)
			}
		}
	}
	return d
}
