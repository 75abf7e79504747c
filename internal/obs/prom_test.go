package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuantilesInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	// 10 observations in the (1, 2] bucket, 10 in (4, 8].
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
		h.Observe(5)
	}
	q := h.Quantiles(0.25, 0.5, 0.75, 1)
	// Rank 0.25 -> target 5 of 20: middle of the (1, 2] bucket.
	if q[0] != 1.5 {
		t.Errorf("p25 = %v, want 1.5", q[0])
	}
	// Rank 0.5 -> target 10: exactly exhausts the (1, 2] bucket.
	if q[1] != 2 {
		t.Errorf("p50 = %v, want 2", q[1])
	}
	// Rank 0.75 -> target 15: middle of the (4, 8] bucket.
	if q[2] != 6 {
		t.Errorf("p75 = %v, want 6", q[2])
	}
	if q[3] != 8 {
		t.Errorf("p100 = %v, want 8", q[3])
	}
}

func TestQuantilesEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	if q := h.Quantiles(0.5); q[0] != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", q[0])
	}
	// All mass in the overflow bucket clamps to the largest bound.
	h.Observe(100)
	h.Observe(200)
	if q := h.Quantiles(0.5, 0.99); q[0] != 10 || q[1] != 10 {
		t.Errorf("overflow quantiles = %v, want [10 10]", q)
	}
	// Out-of-range ranks clamp instead of exploding.
	if q := h.Quantiles(-1, 2); q[0] != 10 || q[1] != 10 {
		t.Errorf("clamped quantiles = %v", q)
	}

	var nilH *Histogram
	if q := nilH.Quantiles(0.5, 0.95); len(q) != 2 || q[0] != 0 || q[1] != 0 {
		t.Errorf("nil histogram quantiles = %v", q)
	}
}

func TestQuantilesFirstBucketInterpolatesFromZero(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10})
	for i := 0; i < 4; i++ {
		h.Observe(3)
	}
	// target = 2 of 4 inside [0, 10) -> 5.
	if q := h.Quantiles(0.5); q[0] != 5 {
		t.Errorf("p50 = %v, want 5", q[0])
	}
}

func TestHistogramSummaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage.run_ms", []float64{1, 2, 4})
	h.Observe(1.5)
	h.Observe(1.5)
	sums := r.HistogramSummaries()
	s, ok := sums["stage.run_ms"]
	if !ok {
		t.Fatalf("missing summary: %v", sums)
	}
	if s.Count != 2 || s.Sum != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 <= 1 || s.P50 > 2 {
		t.Errorf("p50 = %v, want in (1, 2]", s.P50)
	}
	var nilReg *Registry
	if nilReg.HistogramSummaries() != nil {
		t.Error("nil registry summaries non-nil")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"service.jobs_submitted":          "service_jobs_submitted",
		"bank00.nmax":                     "bank00_nmax",
		"service.http.latency_ms.GET /v1": "service_http_latency_ms_GET__v1",
		"9lives":                          "_9lives",
		"":                                "_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("service.jobs_submitted").Add(3)
	r.Gauge("service.queue_depth").Set(2.5)
	r.Series("bank00.nmax").Append(10, 7)
	h := r.Histogram("service.stage.run_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE service_jobs_submitted counter\nservice_jobs_submitted 3\n",
		"# TYPE service_queue_depth gauge\nservice_queue_depth 2.5\n",
		"# TYPE bank00_nmax gauge\nbank00_nmax 7\n",
		"# TYPE service_stage_run_ms histogram\n",
		`service_stage_run_ms_bucket{le="1"} 1`,
		`service_stage_run_ms_bucket{le="10"} 2`,
		`service_stage_run_ms_bucket{le="+Inf"} 3`,
		"service_stage_run_ms_sum 55.5\n",
		"service_stage_run_ms_count 3\n",
		"# TYPE service_stage_run_ms_summary summary\n",
		`service_stage_run_ms_summary{quantile="0.5"}`,
		`service_stage_run_ms_summary{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every non-comment line must be `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Determinism: two renders are byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("WritePrometheus output not deterministic")
	}

	var nilReg *Registry
	var empty bytes.Buffer
	if err := nilReg.WritePrometheus(&empty); err != nil || empty.Len() != 0 {
		t.Errorf("nil registry: err=%v len=%d", err, empty.Len())
	}
}
