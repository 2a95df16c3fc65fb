package bench_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pet/internal/bench"
)

// Fig. 6 (pattern switching) and Fig. 7 (link failure) at the short
// quickRunner scale, pinned byte for byte: however the workload switches
// and link flips are expressed, the rendered series must not move.
// go test ./internal/bench -run Fig67Golden -update regenerates the golden.
func TestFig67Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 6/7 golden runs four simulations")
	}
	r := quickRunner()
	fig6, err := r.Fig6()
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	fig7, err := r.Fig7()
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	var b strings.Builder
	for _, tb := range append(fig6, fig7) {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	// The tables round to two decimals; the run summaries behind them pin
	// every flow, packet-latency sample and queue sample as well.
	for _, fig := range []string{"fig6", "fig7"} {
		for _, scheme := range []bench.Scheme{bench.SchemePET, bench.SchemeACC} {
			key := "series/" + fig + "/" + string(scheme)
			res, ok := r.Cached(key)
			if !ok {
				t.Fatalf("no cached run under %q", key)
			}
			fmt.Fprintf(&b, "%s: flows %d  overall %+v  latency avg %.6g p99 %.6g us  queue avg %.6g var %.6g KB\n",
				key, res.FlowsDone, res.Overall, res.LatencyAvgUs, res.LatencyP99Us, res.QueueAvgKB, res.QueueVarKB)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "fig67.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("Fig. 6/7 drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
