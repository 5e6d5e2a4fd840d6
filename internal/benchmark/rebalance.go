package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
	"github.com/ibbesgx/ibbesgx/internal/trace"
)

// RebalanceRow is one phase of the elastic-membership figure: a mixed
// membership workload runs continuously over many groups while the cluster
// grows from 2 to 4 shards mid-workload. The "pre" and "post" rows measure
// steady-state throughput at each size; the "handoff" row measures the
// disruption of the membership changes themselves — the wall time of the
// two ApplyMembership calls (drain + epoch propagation) and the worst
// single-operation latency any client saw while the arcs moved.
type RebalanceRow struct {
	Phase  string `json:"phase"` // pre | handoff | post
	Shards int    `json:"shards"`
	Groups int    `json:"groups"`
	Ops    int    `json:"ops"`

	Elapsed   time.Duration `json:"elapsed_ns"`
	OpsPerSec float64       `json:"ops_per_sec"`

	// Handoff-only fields.
	// Moved counts groups whose owner changed across the grow (must stay
	// arc-bounded: every move lands on a joining shard).
	Moved int `json:"moved,omitempty"`
	// ApplyTime is the wall time of the ApplyMembership calls themselves.
	ApplyTime time.Duration `json:"apply_ns,omitempty"`
	// MaxOpLatency is the worst single-op latency during the hand-off
	// window — the pause an unlucky client experienced.
	MaxOpLatency time.Duration `json:"max_op_latency_ns,omitempty"`
}

// RunRebalance measures the grow-mid-workload scenario: 8 groups churn
// memberships through the shard handlers while the cluster grows 2→4, with
// the same injected cloud PUT latency as RunCluster so the hand-off pause
// is measured against realistic apply costs.
func RunRebalance(cfg Config) ([]RebalanceRow, error) {
	const groups = 8
	opsPerGroup := cfg.SyntheticOps / 12
	if opsPerGroup < 9 {
		opsPerGroup = 9
	}
	// Three equal slices: pre (2 shards), handoff, post (4 shards).
	slice := opsPerGroup / 3
	initial := cfg.Capacity * 2

	traces := make([]*trace.Trace, groups)
	for i := range traces {
		tr, err := trace.Synthetic(trace.SyntheticConfig{
			Ops:            slice * 3,
			RevocationRate: 0.3,
			InitialSize:    initial,
			Seed:           cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}

	mem := storage.NewMemStore(storage.Latency{Put: benchPutLatency})
	c, err := cluster.New(cluster.Options{
		Shards:   2,
		Capacity: cfg.Capacity,
		Params:   cfg.Params,
		Store:    mem,
		LeaseTTL: 10 * time.Minute, // no expiry churn inside a bench run
		Seed:     cfg.Seed,
		Workers:  1,
	})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	groupName := func(i int) string { return fmt.Sprintf("rebalance-g%03d", i) }

	// Setup (untimed): create every group with its initial member set.
	for i, tr := range traces {
		if err := rebalanceOp(c, groupName(i), "create", map[string]any{
			"group": groupName(i), "members": tr.Initial,
		}); err != nil {
			return nil, err
		}
	}

	// runPhase replays ops[from:to) of every group concurrently (one serial
	// driver per group, mimicking the gateway's per-group routing) and
	// reports the phase's op count, elapsed time and worst op latency.
	runPhase := func(from, to int) (int, time.Duration, time.Duration, error) {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
			total    int
			maxLat   time.Duration
		)
		start := time.Now()
		for i := range traces {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g := groupName(i)
				ops := 0
				worst := time.Duration(0)
				for _, op := range traces[i].Ops[from:to] {
					route := "add"
					if op.Kind == trace.OpRemove {
						route = "remove"
					}
					opStart := time.Now()
					err := rebalanceOp(c, g, route, map[string]any{"group": g, "user": op.User})
					if lat := time.Since(opStart); lat > worst {
						worst = lat
					}
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("%s %s on %s: %w", route, op.User, g, err)
						}
						mu.Unlock()
						return
					}
					ops++
				}
				mu.Lock()
				total += ops
				if worst > maxLat {
					maxLat = worst
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		return total, time.Since(start), maxLat, firstErr
	}

	rows := make([]RebalanceRow, 0, 3)
	row := func(phase string, shards, ops int, elapsed time.Duration) RebalanceRow {
		r := RebalanceRow{Phase: phase, Shards: shards, Groups: groups, Ops: ops, Elapsed: elapsed}
		if ops > 0 && elapsed > 0 {
			r.OpsPerSec = float64(ops) / elapsed.Seconds()
		}
		return r
	}

	// Phase 1: steady state on 2 shards.
	ops, elapsed, _, err := runPhase(0, slice)
	if err != nil {
		return nil, fmt.Errorf("pre phase: %w", err)
	}
	rows = append(rows, row("pre", 2, ops, elapsed))

	// Phase 2: the same workload keeps running while the cluster grows to 4
	// shards — two membership changes, each moving one joining shard's arc.
	before := c.Membership()
	phaseDone := make(chan struct{})
	var hand RebalanceRow
	go func() {
		defer close(phaseDone)
		ops, elapsed, maxLat, perr := runPhase(slice, 2*slice)
		if perr != nil && err == nil {
			err = fmt.Errorf("handoff phase: %w", perr)
		}
		hand = row("handoff", 4, ops, elapsed)
		hand.MaxOpLatency = maxLat
	}()
	applyStart := time.Now()
	for j := 0; j < 2; j++ {
		s, aerr := c.AddShard()
		if aerr != nil {
			return nil, aerr
		}
		if _, aerr := c.Admit(ctx, s.ID); aerr != nil {
			return nil, aerr
		}
	}
	applyTime := time.Since(applyStart)
	<-phaseDone
	if err != nil {
		return nil, err
	}
	after := c.Membership()
	for i := range traces {
		g := groupName(i)
		if ob, oa := before.Owner(g), after.Owner(g); ob != oa {
			hand.Moved++
			if oa != "shard-2" && oa != "shard-3" {
				return nil, fmt.Errorf("benchmark: %s moved %s→%s — not arc-bounded", g, ob, oa)
			}
		}
	}
	hand.ApplyTime = applyTime
	rows = append(rows, hand)

	// Phase 3: steady state on 4 shards.
	ops, elapsed, _, err = runPhase(2*slice, 3*slice)
	if err != nil {
		return nil, fmt.Errorf("post phase: %w", err)
	}
	rows = append(rows, row("post", 4, ops, elapsed))
	return rows, nil
}

// rebalanceOp drives one admin operation through the shard handlers the way
// the gateway would: the routing core's sweep over the group's candidates
// under the cluster's CURRENT membership, each shard addressed in-process;
// 503 means "not the owner (or mid hand-off), try the next candidate".
func rebalanceOp(c *cluster.Cluster, group, route string, body map[string]any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	view := membership.NewView(nil, nil, nil, nil)
	follow := func() {
		// In-process shards have no URLs; each is addressed by its ID.
		m := c.Membership()
		ids := make(map[string]string)
		for _, id := range m.Members() {
			ids[id] = id
		}
		_ = view.Adopt(m, ids)
	}
	follow()
	return view.Sweep(context.Background(), group, 30*time.Second, 2*time.Millisecond, func(_ context.Context, id, _ string, _ bool) (membership.Outcome, error) {
		shard := c.Shard(id)
		if shard == nil {
			follow()
			return membership.Miss, fmt.Errorf("benchmark: %s left the cluster", id)
		}
		req := httptest.NewRequest(http.MethodPost, "/admin/"+route, strings.NewReader(string(blob)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusServiceUnavailable:
			follow() // a hand-off: the next pass sweeps the new owners
			return membership.Miss, errors.New(strings.TrimSpace(rec.Body.String()))
		case rec.Code >= 300:
			return membership.Answered, fmt.Errorf("benchmark: shard answered %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return membership.Served, nil
	}, nil)
}

// PrintRebalance writes the elastic-membership table.
func PrintRebalance(w io.Writer, rows []RebalanceRow) {
	fmt.Fprintln(w, "Rebalance — live grow 2→4 shards under a mixed add/remove workload (serial admin per shard)")
	fmt.Fprintf(w, "%8s  %7s  %7s  %7s  %12s  %10s  %7s  %12s  %14s\n",
		"phase", "shards", "groups", "ops", "elapsed", "ops/s", "moved", "apply", "max-op-pause")
	for _, r := range rows {
		moved, apply, pause := "", "", ""
		if r.Phase == "handoff" {
			moved = fmt.Sprintf("%d", r.Moved)
			apply = Dur(r.ApplyTime)
			pause = Dur(r.MaxOpLatency)
		}
		fmt.Fprintf(w, "%8s  %7d  %7d  %7d  %12s  %10.1f  %7s  %12s  %14s\n",
			r.Phase, r.Shards, r.Groups, r.Ops, Dur(r.Elapsed), r.OpsPerSec, moved, apply, pause)
	}
	if len(rows) == 3 {
		pre, hand, post := rows[0], rows[1], rows[2]
		fmt.Fprintf(w, "shape: grew 2→4 live with zero failed ops; %d/%d groups moved (arc-bounded), worst client pause %s; steady state %.1f ops/s before vs %.1f after\n",
			hand.Moved, hand.Groups, Dur(hand.MaxOpLatency), pre.OpsPerSec, post.OpsPerSec)
	}
}
