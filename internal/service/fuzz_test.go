package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit drives POST /v1/jobs with arbitrary bodies against a
// scheduler whose runner simulates nothing. Whatever the bytes, the
// submission path must not panic and must answer 202 (accepted), 400
// (invalid spec), 413 (oversized body) or 429 (queue full) — never a
// 5xx. The seed corpus is the 400 table plus a few valid specs.
// Tier-1 runs only the seeds; fuzz with
//
//	go test -run '^$' -fuzz FuzzSubmit ./internal/service
func FuzzSubmit(f *testing.F) {
	for _, tc := range invalidSubmissions() {
		b, err := json.Marshal(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, spec := range []JobSpec{
		quickRunSpec(1),
		{Run: &RunSpec{Arch: "cc", Workload: "ft", CCProbability: 0.5, SampleWindows: 4}, Priority: 3, DeadlineMS: 1000},
		{Matrix: &MatrixSpec{Workloads: []string{"apache", "oltp"}, VariantSet: "all", Seeds: []uint64{1, 2}}},
		{Matrix: &MatrixSpec{Workloads: []string{"apache"}, Variants: []VariantSpec{{Label: "x", Arch: "shared"}}}},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"run": {"arch": "esp-nuca", "workload": "apache"}} trailing`))
	f.Add([]byte(`[`))

	stub := RunnerFunc(func(context.Context, JobSpec, func(int, int)) (any, error) {
		return "ok", nil
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		// A fresh scheduler per input, and an accepted job runs to the
		// end before the next input: the code each input reaches then
		// does not depend on what earlier inputs left queued.
		sched, err := New(Config{Workers: 1, Runner: stub})
		if err != nil {
			t.Fatal(err)
		}
		defer sched.Drain(context.Background())
		rec := httptest.NewRecorder()
		NewServer(sched, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
			var resp struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("202 without a job ID: %s", rec.Body.Bytes())
			}
			waitTerminal(t, sched, resp.ID)
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /v1/jobs %q: status %d %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}
