package main

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"
)

// tiny runs a workload at the smallest size the workloads accept.
func tiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	res, err := run(opts{
		workload: workload, seed: 3, seconds: 0.6, trace: trace, size: 32,
		traceOut: filepath.Join(t.TempDir(), "spans.json"),
	})
	if err != nil {
		t.Fatalf("%s (trace %t): %v", workload, trace, err)
	}
	return res
}

// TestEveryMetricPrinted runs each workload untraced and traced at tiny
// size and checks that every metric of its list is printed with its unit,
// and nothing else, and that every operation passed its check.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range []string{"bulk", "access", "serve"} {
		for _, trace := range []bool{false, true} {
			res := tiny(t, w, trace)
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", w, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", w, trace, s.name, m, s.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace && res.Metrics["ok_pct"].Value != 100 {
				t.Errorf("%s: ok_pct = %v, want 100", w, res.Metrics["ok_pct"].Value)
			}
		}
	}
}

// flipTransport flips one byte in the middle of every response body.
type flipTransport struct{ base http.RoundTripper }

func (f flipTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		body[len(body)/2] ^= 0x40
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestCorruptedReplyFails checks that a reply whose bytes were damaged in
// transit counts as a failed, wrong operation for every serve operation.
func TestCorruptedReplyFails(t *testing.T) {
	st, err := setupServe(opts{seed: 3, size: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	jobs := st.schedule(3, 10*time.Second)
	seen := map[string]bool{}
	st.client.Transport = flipTransport{base: st.client.Transport}
	for _, j := range jobs {
		if seen[j.op] {
			continue
		}
		seen[j.op] = true
		rn := newRunner()
		st.do(j).account(rn)
		if rn.attempted != 1 || rn.failed != 1 || rn.wrong != 1 || rn.okPct() != 0 {
			t.Errorf("%s: corrupted reply counted as attempted=%d failed=%d wrong=%d", j.op, rn.attempted, rn.failed, rn.wrong)
		}
	}
	if len(seen) != len(serveMix) {
		t.Fatalf("schedule covered %d of %d operations", len(seen), len(serveMix))
	}
}
