package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// streamOps generates n ops of a workload's first caller from a fresh
// model, as (kind, group, user, readers) tuples.
func streamOps(t *testing.T, workload string, seed int64, n int) []string {
	t.Helper()
	sp, err := specByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var groups []*groupModel
	for i := 0; i < sp.groups; i++ {
		groups = append(groups, newGroupModel("g"+string(rune('a'+i)), sp.members, sp.pool, rng))
	}
	s := &opStream{rng: rand.New(rand.NewSource(streamSeed(seed, 0))), groups: groups, sp: sp}
	out := make([]string, n)
	for i := range out {
		o := s.next()
		out[i] = opName(o) + " " + o.group.name + " " + o.user
		for _, r := range o.readers {
			out[i] += " " + o.group.pool[r]
		}
	}
	return out
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a := streamOps(t, sp.name, 7, 2000)
		if b := streamOps(t, sp.name, 7, 2000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op streams", sp.name)
		}
		if c := streamOps(t, sp.name, 8, 2000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", sp.name)
		}
	}
}

// exactCounts are the metrics that count work rather than time: for a seed
// and a fixed number of ops they must repeat exactly.
var exactCounts = []string{
	"store_bytes_per_member",
	"storage.round_trips_per_op",
	"ibbe.g1_exp_per_op",
	"ibbe.gt_exp_per_op",
	"ibbe.zr_mul_per_op",
	"ibbe.pairings_per_read",
	"core.page_loads_per_op",
}

// smallConfig is a workload at test size: 1024 members (8 partitions, twice
// admin-cloud's page bound) and a fixed op count.
func smallConfig(workload string, seed int64) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed = workload, seed
	cfg.members = 1024
	cfg.setups = 1
	cfg.ops = 16
	cfg.trace = true
	return cfg
}

// metric finds a metric of either list by name.
func (r *result) metric(name string) (metric, bool) {
	for _, list := range [][]metric{r.e2e, r.layer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !res.correct {
		t.Fatalf("%s: %d of %d checks failed: %v", cfg.workload, res.failed, res.attempted, res.failures)
	}
	return res
}

func TestExactCountsRepeatForASeed(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a := mustRun(t, smallConfig(sp.name, 3))
			b := mustRun(t, smallConfig(sp.name, 3))
			e2e, layer := benchmarkJSON(t)
			sameMetrics(t, "end-to-end", a.e2e, e2e)
			sameMetrics(t, "per-layer", a.layer, layer)
			if a.attempted != b.attempted {
				t.Errorf("attempted %d vs %d", a.attempted, b.attempted)
			}
			for _, name := range exactCounts {
				ma, _ := a.metric(name)
				mb, _ := b.metric(name)
				if ma.Value != mb.Value {
					t.Errorf("%s: %v vs %v", name, ma.Value, mb.Value)
				}
			}
			if m, _ := a.metric("storage.round_trips_per_op"); m.Value == 0 {
				t.Error("no store round trips counted")
			}
			if m, _ := a.metric("ibbe.pairings_per_read"); m.Value == 0 {
				t.Error("no pairings counted for reads")
			}
			loads, _ := a.metric("core.page_loads_per_op")
			evictions, _ := a.metric("core.page_evictions_per_op")
			if paged := sp.pageBound > 0; paged != (loads.Value > 0) || paged != (evictions.Value > 0) {
				t.Errorf("page loads %v, evictions %v per op with page bound %d", loads.Value, evictions.Value, sp.pageBound)
			}
		})
	}
}

type benchMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchmarkJSON reads the metric lists of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []benchMetric) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// bounds maps each end-to-end metric to its bound.
func bounds(t *testing.T) map[string]float64 {
	e2e, _ := benchmarkJSON(t)
	out := make(map[string]float64)
	for _, m := range e2e {
		out[m.Name] = m.Bound
	}
	return out
}

// sameMetrics fails unless the gated metrics of got are exactly the metrics
// of want, with their units, in order.
func sameMetrics(t *testing.T, what string, got []metric, want []benchMetric) {
	t.Helper()
	var g, w []string
	for _, m := range got {
		if !m.Ungated {
			g = append(g, m.Name+" "+m.Unit)
		}
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s metrics differ from BENCHMARK.json:\n got %v\nwant %v", what, g, w)
	}
}

// cloudPutRegression is the slower cloud the sensitivity test injects:
// 4 ms more per PUT (5 → 9 ms). A revocation on admin-cloud commits 18
// PUTs, so it moves revoke_ms.p50 by about 70 ms, well past the 0.25 bound
// the metric needs on a 2-vCPU machine whose speed drifts between runs. A
// 1 ms regression (about +8 %) stays inside that bound.
const cloudPutRegression = 4 * time.Millisecond

// TestBoundsCatchASlowerCloud checks that the workloads separate layers and
// that the bounds catch a real regression: a slower cloud PUT must push
// revoke_ms.p50 on admin-cloud past its bound, while admin-local, whose
// store is in-process, stays within every bound.
func TestBoundsCatchASlowerCloud(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads for about a minute")
	}
	b := bounds(t)
	measure := func(workload string, seconds float64, extra time.Duration) *result {
		cfg := defaultConfig()
		cfg.workload, cfg.seed, cfg.seconds, cfg.cloudPutExtra = workload, 11, seconds, extra
		return mustRun(t, cfg)
	}

	base := measure("admin-cloud", 8, 0)
	slow := measure("admin-cloud", 8, cloudPutRegression)
	mb, _ := base.metric("revoke_ms.p50")
	ms, _ := slow.metric("revoke_ms.p50")
	t.Logf("admin-cloud revoke_ms.p50: %.2f ms, %.2f ms with %v more per PUT", mb.Value, ms.Value, cloudPutRegression)
	if ms.Value <= mb.Value*(1+b["revoke_ms.p50"]) {
		t.Errorf("admin-cloud revoke_ms.p50 %.2f → %.2f ms with %v more per PUT: within its bound %.2f", mb.Value, ms.Value, cloudPutRegression, b["revoke_ms.p50"])
	}

	base = measure("admin-local", 10, 0)
	slow = measure("admin-local", 10, cloudPutRegression)
	for _, m := range base.e2e {
		if m.Ungated {
			continue
		}
		s, _ := slow.metric(m.Name)
		worse := s.Value - m.Value
		if m.Name == "admin_ops_per_s" {
			worse = -worse
		}
		if worse > b[m.Name]*m.Value {
			t.Errorf("admin-local %s %.4f → %.4f %s with a slower cloud: past its bound %.2f", m.Name, m.Value, s.Value, m.Unit, b[m.Name])
		}
	}
}
