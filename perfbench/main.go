// Command perfbench is the repository's benchmark: three seeded, closed-loop
// workloads over the whole system at the paper-512 pairing scale, each
// printing its end-to-end metrics by name and unit and checking the
// program's outputs as it goes. Run it from the repository root:
//
//	bash perfbench/run.sh --workload admin-local --seed 1 --seconds 35 --trace 0
//
// Workloads (partition capacity 128, so a 2048-member group has 16
// partitions; GOMAXPROCS = number of CPUs):
//
//   - admin-local: one admin.Admin (unconditional apply) over an in-process
//     store with no latency; 4 groups × 2048 members, pages unbounded; one
//     caller; 70 % add / 30 % revoke. CPU-bound: enclave, ibbe and core
//     work dominate; store, routing, paging and client are bypassed.
//   - admin-cloud: a 2-shard cluster behind cluster.Router, driven through
//     client.AdminAPI over loopback HTTP (CAS + fenced apply), on the cloud
//     latency model (5 ms PUT, 2 ms GET); 4 groups × 2048, 2 per shard, at
//     most 4 resident pages per group; two callers, one per shard's groups;
//     one worker per shard (serial administrators, as many as CPUs);
//     70 % add / 30 % revoke. Round-trip-bound; pages hydrate from the store.
//   - read-revoke: one serial admin.Admin (one worker) on the cloud latency
//     model; 1 group × 2040, pages unbounded; one caller; 50 % add / 50 %
//     revoke. After every op two sampled members re-derive the key through
//     an uncached client.Client.Refresh, and a stable member runs
//     client.Watch with its own record cache. 2040 members keep the group
//     inside 16 partitions while it moves by at most 5 members around its
//     start.
//
// The op stream is seeded and stratified: each group draws its op kinds
// from shuffled decks of 10 holding the exact mix, and a caller visits its
// groups in shuffled rounds, so every seed walks the groups through the
// same sizes and partition counts.
//
// Every workload checks, after each op, that the sampled members derive the
// same key as the group's other members (and the watcher), that every
// revocation yields a key never seen before in the run, and that the
// revoked user's Refresh fails with ErrEvicted; at the end it compares each
// group's members with the benchmark's model. Admin workloads read after
// each revocation with one member. Checks run outside the op's timed call,
// and a caller's check reads wait until no other caller has an op in flight.
// read_ms.p50 is printed but not gated (see ungated in run.go).
//
// With --trace 0 the last line of output carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, measured from outside the
// program (see trace.go) on every other cycle, the cycles in between giving
// the tracing overhead. The exit code is 0 only when every check passed.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	cfg := defaultConfig()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "admin-local, admin-cloud or read-revoke")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the op stream and of partition placement")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per caller")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload == "" || flag.NArg() > 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	env, err := environment(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	blob, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", blob)

	res, err := run(cfg)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	report(out, cfg, res)
	if !res.correct {
		out.Flush()
		os.Exit(1)
	}
}

// report prints every metric by name with its unit, then the result line.
func report(w io.Writer, cfg config, res *result) {
	printList := func(title string, ms []metric) {
		fmt.Fprintln(w, title)
		for _, m := range ms {
			n := ""
			if strings.HasSuffix(m.Name, ".p50") || strings.HasSuffix(m.Name, ".p90") {
				n = fmt.Sprintf("  (n=%d)", m.N)
			}
			if m.Ungated {
				n += "  (not gated)"
			}
			fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", m.Name, m.Value, m.Unit, n)
		}
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced cycles"
	}
	printList("end-to-end ("+mode+"):", res.e2e)
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.4f ratio  (%d failed of %d attempted)\n", "failed_ops_ratio", ratio, res.failed, res.attempted)
	if cfg.trace {
		printList("end-to-end (untraced cycles of the traced run):", res.untracedE2E)
		printList("per-layer:", res.layer)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	list := res.e2e
	if cfg.trace {
		list = res.layer
	}
	for _, m := range list {
		if !m.Ungated {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// environment stamps a result with what it ran on and what it ran.
func environment(cfg config) (map[string]any, error) {
	src, err := sourceHash(".")
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"params":        "paper-512 (" + paramsName + ")",
		"source_sha256": src,
	}, nil
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash identifies the code under test: a SHA-256 over the Go sources
// and module files below root, in path order. Dot-directories (build
// output, VCS metadata) are skipped.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		blob, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(blob))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
