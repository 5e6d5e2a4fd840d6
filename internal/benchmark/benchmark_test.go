package benchmark

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/trace"
)

// tinyConfig shrinks the CI grid further for unit testing.
func tinyConfig() Config {
	cfg := CIScale()
	cfg.GroupSizes = []int{8, 16, 32}
	cfg.PartitionSizes = []int{4, 8, 16}
	cfg.Capacity = 8
	cfg.AddSamples = 24
	cfg.ExtractSamples = 8
	cfg.KernelOps = 200
	cfg.KernelPeak = 20
	cfg.Fig9Partitions = []int{5, 10}
	cfg.SyntheticOps = 40
	cfg.SyntheticInitial = 50
	cfg.Fig10Partitions = []int{8}
	return cfg
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"ci", "", "medium", "paper"} {
		if _, ok := ScaleByName(name); !ok {
			t.Fatalf("scale %q unknown", name)
		}
	}
	if _, ok := ScaleByName("nope"); ok {
		t.Fatal("unknown scale accepted")
	}
}

func TestFig2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	rows, err := RunFig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// IBBE metadata constant; HE metadata linear in n.
		if r.IBBEBytes != rows[0].IBBEBytes {
			t.Fatal("IBBE metadata is not constant")
		}
		if i > 0 {
			prev := rows[i-1]
			if r.HEPKIBytes <= prev.HEPKIBytes || r.HEIBEBytes <= prev.HEIBEBytes {
				t.Fatal("HE metadata did not grow with the group")
			}
		}
	}
	last := rows[len(rows)-1]
	if last.HEPKIBytes <= last.IBBEBytes {
		t.Fatal("HE metadata not larger than IBBE's")
	}
	// Raw IBBE creation must be slower than HE-PKI (the paper's 150×
	// motivates the whole construction; at tiny scale we only require >1×).
	if last.IBBECreate <= last.HEPKICreate {
		t.Fatalf("raw IBBE (%v) not slower than HE-PKI (%v)", last.IBBECreate, last.HEPKICreate)
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	// Setup is O(m) fixed-base exponentiations at ~15µs each on the limb
	// fast path, on top of a few milliseconds of constant-cost generator
	// sampling and pairing work. The grid must reach partition sizes where
	// the linear term clears that constant, or the latency ordering drowns
	// in noise.
	cfg := tinyConfig()
	cfg.PartitionSizes = []int{16, 128, 1024}
	rows, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Setup latency grows with partition size.
	if rows[len(rows)-1].SetupLatency <= rows[0].SetupLatency {
		t.Fatal("setup latency not increasing in partition size")
	}
	// Extraction throughput is flat: within 5× across sizes (generous for
	// CI noise; the claim is independence from m).
	lo, hi := rows[0].ExtractOpsPerSec, rows[0].ExtractOpsPerSec
	for _, r := range rows {
		if r.ExtractOpsPerSec < lo {
			lo = r.ExtractOpsPerSec
		}
		if r.ExtractOpsPerSec > hi {
			hi = r.ExtractOpsPerSec
		}
		if r.ExtractOpsPerSec <= 0 {
			t.Fatal("non-positive extract throughput")
		}
	}
	if hi/lo > 5 {
		t.Fatalf("extract throughput varies %0.1f× across partition sizes", hi/lo)
	}
}

func TestFig7aShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	// The remove crossover (HE O(n) vs IBBE-SGX O(n/m)) needs the group to
	// be a healthy multiple of the partition size: pairing operations cost
	// far more than P-256 ones, so n/m must outgrow the constant ratio.
	cfg := tinyConfig()
	cfg.Capacity = 64
	cfg.GroupSizes = []int{64, 512}
	rows, err := RunFig7a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	// Footprint: IBBE-SGX orders of magnitude smaller, and constant per
	// partition rather than per member.
	if last.IBBEBytes >= last.HEBytes {
		t.Fatal("IBBE-SGX footprint not smaller than HE")
	}
	// Remove: HE is O(n); IBBE-SGX is O(|P|). At the largest group the HE
	// remove must be slower.
	if last.HERemove <= last.IBBERemove {
		t.Fatalf("HE remove (%v) not slower than IBBE-SGX (%v) at n=%d",
			last.HERemove, last.IBBERemove, last.N)
	}
}

func TestFig8aShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	res, err := RunFig8a(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.IBBE.Len() != res.HE.Len() || res.IBBE.Len() == 0 {
		t.Fatal("CDF sample counts broken")
	}
	// HE add is faster than IBBE-SGX add (paper: ≈ 2×).
	if res.HE.Quantile(0.5) >= res.IBBE.Quantile(0.5) {
		t.Fatalf("HE median add (%v) not faster than IBBE-SGX (%v)",
			res.HE.Quantile(0.5), res.IBBE.Quantile(0.5))
	}
	// Both arms of Algorithm 2 must have been exercised.
	if res.NewPartitionAdds == 0 || res.NewPartitionAdds == res.IBBE.Len() {
		t.Fatalf("add stream not bimodal: %d/%d new partitions", res.NewPartitionAdds, res.IBBE.Len())
	}
}

func TestFig8bShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	cfg := tinyConfig()
	cfg.PartitionSizes = []int{16, 64, 256}
	rows, err := RunFig8b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.PartitionSizes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.PartitionSizes))
	}
	// The IBBE floors are asserted on exact primitive counts (ibbe.Metrics),
	// as Table I is: one wall-clock sample per size cannot gate a shape. The
	// pairing constant dominates tiny partitions, so the weighted decrypt
	// cost must grow at least half-linearly (the quadratic regime shows at
	// paper scale), while the polynomial expansion's Z_r multiplications
	// are quadratic at any scale.
	first, last := rows[0].M, rows[len(rows)-1].M
	cost0, zr0 := fig8bDecryptCounts(t, cfg, first)
	cost1, zr1 := fig8bDecryptCounts(t, cfg, last)
	ratio := float64(last) / float64(first)
	growth := float64(cost1) / float64(cost0)
	t.Logf("decrypt cost %d → %d, Z_r mults %d → %d for m = %d → %d", cost0, cost1, zr0, zr1, first, last)
	if growth < ratio/2 {
		t.Fatalf("IBBE decrypt cost growth %.1f× over a %.0fx partition range — too flat", growth, ratio)
	}
	if zrGrowth := float64(zr1) / float64(zr0); zrGrowth < ratio*ratio/2 {
		t.Fatalf("IBBE decrypt Z_r multiplications grew %.1f× over a %.0fx range — not quadratic", zrGrowth, ratio)
	}
	// HE decrypt stays flat: a timing, so each size is the median of
	// repeated samples.
	heGrowth := float64(heDecryptMedian(t, last)) / float64(heDecryptMedian(t, first))
	t.Logf("HE decrypt median grew %.2f× (bound %.2f×)", heGrowth, growth/4)
	if heGrowth > growth/4 {
		t.Fatalf("HE decrypt not flat: grew %.1f×", heGrowth)
	}
}

// fig8bDecryptCounts creates a Fig. 8b group of m members and returns the
// ibbe.Metrics weighted cost (Metrics.Total) and Z_r multiplications of one
// member's decryption, with the key provisioning left outside the count.
func fig8bDecryptCounts(t *testing.T, cfg Config, m int) (cost, zrMul int64) {
	t.Helper()
	ctl, err := NewIBBEController(cfg.Params, m, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	met := &ibbe.Metrics{}
	ctl.Encl.Scheme().Metrics = met
	members := names(m, fmt.Sprintf("fig8b-%d", m))
	if err := ctl.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.clientFor(members[m/2]); err != nil {
		t.Fatal(err)
	}
	met.Reset()
	if _, err := ctl.SampleDecrypt("g", members[m/2]); err != nil {
		t.Fatal(err)
	}
	return met.Total(), met.ZrMul.Load()
}

// heDecryptMedian returns the median of repeated HE-PKI decryptions as one
// member of an m-member group.
func heDecryptMedian(t *testing.T, m int) time.Duration {
	t.Helper()
	he := NewHEPKIController()
	members := names(m, fmt.Sprintf("he-%d", m))
	if err := he.RegisterAll(members); err != nil {
		t.Fatal(err)
	}
	if err := he.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	samples := make([]time.Duration, 15)
	for i := range samples {
		d, err := he.SampleDecrypt("g", members[m/2])
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = d
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}

func TestFig9ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	cfg := tinyConfig()
	rows, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ibbeRows []Fig9Row
	var heRow *Fig9Row
	for i := range rows {
		if rows[i].Scheme == "he-pki" {
			heRow = &rows[i]
		} else {
			ibbeRows = append(ibbeRows, rows[i])
		}
	}
	if heRow == nil || len(ibbeRows) != 2 {
		t.Fatalf("unexpected row shape: %+v", rows)
	}
	// Larger partitions → cheaper admin replay (fewer partitions to re-key),
	// dearer decrypts (quadratic in m). Both are asserted on exact primitive
	// counts of the same replay, not on its wall-clock.
	admin0, dec0 := fig9Costs(t, cfg, ibbeRows[0].M)
	admin1, dec1 := fig9Costs(t, cfg, ibbeRows[1].M)
	t.Logf("admin cost %d → %d, mean decrypt cost %.0f → %.0f for m = %d → %d",
		admin0, admin1, dec0, dec1, ibbeRows[0].M, ibbeRows[1].M)
	if admin1 >= admin0 {
		t.Fatalf("larger partition did not lower the admin cost: %d vs %d", admin0, admin1)
	}
	if dec1 <= dec0 {
		t.Fatalf("larger partition did not raise the decrypt cost: %.0f vs %.0f", dec0, dec1)
	}
}

// fig9Costs replays the Fig. 9 kernel trace at partition size m with
// ibbe.Metrics attached and returns the weighted primitive cost
// (Metrics.Total) of the administrator side and of the mean sampled
// decryption.
func fig9Costs(t *testing.T, cfg Config, m int) (admin int64, decrypt float64) {
	t.Helper()
	tr, sampleEvery, err := fig9Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewIBBEController(cfg.Params, m, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	met := &ibbe.Metrics{}
	ctl.Encl.Scheme().Metrics = met
	s := &costSampler{ctl: ctl, met: met}
	if _, err := trace.Replay(tr, ctl, trace.ReplayOptions{
		Group:       "kernel",
		SampleEvery: sampleEvery,
		Sampler:     s,
	}); err != nil {
		t.Fatal(err)
	}
	if s.samples == 0 {
		t.Fatal("replay took no decrypt samples")
	}
	return met.Total() - s.sampling, float64(s.decrypt) / float64(s.samples)
}

// costSampler wraps an IBBEController's decrypt sampling and accounts its
// ibbe.Metrics cost: sampling covers key provisioning plus decryption (all
// of it outside the administrator's cost), decrypt the decryptions alone.
type costSampler struct {
	ctl               *IBBEController
	met               *ibbe.Metrics
	sampling, decrypt int64
	samples           int
}

func (s *costSampler) SampleDecrypt(group, user string) (time.Duration, error) {
	start := s.met.Total()
	if _, err := s.ctl.clientFor(user); err != nil {
		return 0, err
	}
	provisioned := s.met.Total()
	d, err := s.ctl.SampleDecrypt(group, user)
	end := s.met.Total()
	s.sampling += end - start
	s.decrypt += end - provisioned
	s.samples++
	return d, err
}

func TestFig10ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	cfg := tinyConfig()
	rows, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11*len(cfg.Fig10Partitions) {
		t.Fatalf("rows = %d", len(rows))
	}
	// The well-formed claim at any scale: replay with revocations is more
	// expensive than the pure-add workload (rate 0).
	if rows[5].Total <= rows[0].Total {
		t.Fatalf("50%% revocations (%v) not costlier than 0%% (%v)", rows[5].Total, rows[0].Total)
	}
}

func TestTable1ComplexityShape(t *testing.T) {
	rows, err := RunTable1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ sgx, classic float64 }{
		"Create Group Key (per partition)": {1, 2},
		"Add User to Group":                {0, 2},
		"Remove User (per partition)":      {0, 2},
		"Decrypt Group Key":                {2, 2},
		"Extract User Key":                 {0, 0},
		"System Setup":                     {1, 1},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.Operation]
		if !ok {
			t.Fatalf("unexpected operation %q", r.Operation)
		}
		if math.Abs(r.IBBESGXSlope-w.sgx) > 0.35 {
			t.Fatalf("%s: IBBE-SGX slope %.2f, want ≈ %.0f", r.Operation, r.IBBESGXSlope, w.sgx)
		}
		if math.Abs(r.ClassicSlope-w.classic) > 0.35 {
			t.Fatalf("%s: classic slope %.2f, want ≈ %.0f", r.Operation, r.ClassicSlope, w.classic)
		}
	}
}

func TestCDFBasics(t *testing.T) {
	samples := []time.Duration{4, 1, 3, 2, 5}
	c := NewCDF(samples)
	if c.Quantile(0) != 1 || c.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if c.Quantile(0.5) != 3 {
		t.Fatalf("median = %v", c.Quantile(0.5))
	}
	if c.Mean() != 3 {
		t.Fatalf("mean = %v", c.Mean())
	}
	if got := c.At(3); got != 0.6 {
		t.Fatalf("CDF(3) = %f", got)
	}
	empty := NewCDF(nil)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 || empty.At(1) != 0 {
		t.Fatal("empty CDF not zero-valued")
	}
}

func TestLogLogSlope(t *testing.T) {
	// Quadratic data → slope 2.
	xs := []float64{2, 4, 8, 16}
	ys := []float64{4, 16, 64, 256}
	slope, err := LogLogSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 {
		t.Fatalf("slope = %f", slope)
	}
	if _, err := LogLogSlope([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LogLogSlope([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := LogLogSlope([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestSampleAveragesAndPropagates(t *testing.T) {
	calls := 0
	d, err := Sample(4, func() error { calls++; return nil })
	if err != nil || calls != 4 || d < 0 {
		t.Fatalf("Sample: %v %d %v", err, calls, d)
	}
	// iters < 1 still runs once; errors propagate.
	calls = 0
	if _, err := Sample(0, func() error { calls++; return errBoom }); err == nil || calls != 1 {
		t.Fatalf("Sample error path: %v %d", err, calls)
	}
}

var errBoom = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestBytesAndDurFormatting(t *testing.T) {
	cases := map[int]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Fatalf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
	if Dur(90*time.Second) != "1m30s" {
		t.Fatalf("Dur = %q", Dur(90*time.Second))
	}
}

func TestOrdersOfMagnitude(t *testing.T) {
	if got := OrdersOfMagnitude(1_000_000, 1); math.Abs(got-6) > 1e-9 {
		t.Fatalf("orders = %f", got)
	}
	if OrdersOfMagnitude(0, 1) != 0 {
		t.Fatal("degenerate input not zero")
	}
}

func TestRatioFormatting(t *testing.T) {
	if Ratio(2*time.Second, time.Second) != "2.0×" {
		t.Fatal("Ratio broken")
	}
	if Ratio(time.Second, 0) != "∞×" {
		t.Fatal("Ratio division by zero")
	}
}
