package experiments

import (
	"strings"
	"testing"

	"prophet/internal/workloads"
)

var quick = Options{Quick: true}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"T1", "F1", "F6", "F8", "F10", "F11", "F12", "F13", "F14",
		"F15", "F16a", "F16b", "F16c", "F17", "F18", "F19", "OV", "ST", "EN"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("F99", quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1RendersConfig(t *testing.T) {
	res := Table1(quick)
	out := res.Render()
	for _, want := range []string{"288-entry ROB", "2 MB, 16-way", "degree-8 stride"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFigure1ShowsPatternConfCollapse(t *testing.T) {
	res := Figure1(Options{Records: 40_000})
	if len(res.Series) == 0 || len(res.Series[0].Values) == 0 {
		t.Fatal("no PatternConf trace")
	}
	min := res.Series[0].Values[0]
	for _, v := range res.Series[0].Values {
		if v < min {
			min = v
		}
	}
	if min > 2 {
		t.Fatalf("PatternConf never collapsed (min %v); Figure 1's failure mode missing", min)
	}
}

func TestFigure8Monotone(t *testing.T) {
	res := Figure8(quick)
	t1, ok1 := res.Value("T=1", "Mean")
	t2, ok2 := res.Value("T=2", "Mean")
	t3, ok3 := res.Value("T=3", "Mean")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing histogram values")
	}
	if !(t1 > t2 && t2 > t3) {
		t.Fatalf("target distribution not decreasing: %v %v %v", t1, t2, t3)
	}
	if t1 < 0.4 {
		t.Fatalf("T=1 fraction %v too small; should be the majority", t1)
	}
	if t2 < 0.01 {
		t.Fatalf("T=2 fraction %v; multi-target sources missing (Figure 8)", t2)
	}
}

func TestFigure10Ordering(t *testing.T) {
	res := Figure10(quick)
	pr, _ := res.Value("Prophet", "Geomean")
	tr, _ := res.Value("Triangel", "Geomean")
	rp, _ := res.Value("RPG2", "Geomean")
	if pr <= tr {
		t.Fatalf("Prophet (%.3f) must beat Triangel (%.3f) on geomean", pr, tr)
	}
	if rp < 0.97 || rp > 1.1 {
		t.Fatalf("RPG2 geomean %.3f; should sit at ~1.0 on SPEC-like workloads", rp)
	}
}

func TestFigure13LearningConverges(t *testing.T) {
	res := Figure13(quick)
	disable, _ := res.Value("Disable", "Geomean")
	direct, _ := res.Value("Direct", "Geomean")
	// The final learned stage must be near Direct and above Disable.
	var last float64
	for _, s := range res.Series {
		if strings.HasPrefix(s.Name, "+") {
			last = s.Values[len(s.Values)-1]
		}
	}
	if last <= disable {
		t.Fatalf("learning (%.3f) did not improve over Disable (%.3f)", last, disable)
	}
	if last < direct*0.97 {
		t.Fatalf("learned binary (%.3f) far from Direct (%.3f)", last, direct)
	}
}

func TestFigure19CumulativeFeatures(t *testing.T) {
	res := Figure19(quick)
	base, _ := res.Value("Triage4+Meta", "Geomean")
	full, _ := res.Value("+Resize", "Geomean")
	if full <= base {
		t.Fatalf("full Prophet (%.3f) must beat the ablation base (%.3f)", full, base)
	}
	if len(res.Tables) == 0 {
		t.Fatal("traffic table missing")
	}
}

// TestStorageOverheadNumbers pins the whole ST table: Section 5.10's
// Prophet sizes (48KB + 0.19KB + 344KB) and the Triage and Triangel rows.
func TestStorageOverheadNumbers(t *testing.T) {
	const want = "=== ST: Storage overhead (Section 5.10) ===\n" +
		"Storage overhead\n" +
		"Scheme    Structure                    KB    \n" +
		"--------  ---------------------------  ------\n" +
		"Prophet   Prophet replacement state    48.00 \n" +
		"Prophet   Hint buffer                  0.19  \n" +
		"Prophet   Multi-path Victim Buffer     344.00\n" +
		"Prophet   TOTAL                        392.19\n" +
		"Triage    Hawkeye replacement state    13.00 \n" +
		"Triage    Bloom-filter resizer         200.00\n" +
		"Triage    TOTAL                        213.00\n" +
		"Triangel  SRRIP replacement state      48.00 \n" +
		"Triangel  Set Dueller                  2.00  \n" +
		"Triangel  Training unit + confidences  11.00 \n" +
		"Triangel  TOTAL                        61.00 \n" +
		"paper targets: Prophet = 48KB replacement state + 0.19KB hint buffer + 344KB MVB\n"
	if got := StorageOverhead(quick).Render(); got != want {
		t.Errorf("storage table:\n%s\nwant:\n%s", got, want)
	}
}

func TestOverheadsWithinBudgets(t *testing.T) {
	res := Overheads(quick)
	for _, n := range res.Notes {
		if strings.Contains(n, "VIOLATION") {
			t.Fatal(n)
		}
	}
}

// TestOverheadsRenderStable: OV prints no measured duration, so two runs
// render byte-identically.
func TestOverheadsRenderStable(t *testing.T) {
	if a, b := Overheads(quick).Render(), Overheads(quick).Render(); a != b {
		t.Fatalf("OV differs between runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestParallelRenderByteIdentical pins the acceptance criterion for the
// concurrent sweep engine: an experiment rendered with N workers is
// byte-identical to the serial rendering.
func TestParallelRenderByteIdentical(t *testing.T) {
	for _, id := range []string{"F8", "F10"} {
		serial, err := Run(id, Options{Quick: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Run(id, Options{Quick: true, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if s, p := serial.Render(), parallel.Render(); s != p {
			t.Errorf("%s rendering differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
	}
}

// TestExtraWorkloadRidesAlongComparison: Options.Extra appends a workload to
// the default-configuration comparison after the catalog list. An extra
// built on mcf's own factory must score exactly what mcf scores, and the
// rendering must stay byte-identical whatever the worker count. Run after
// the Quick-mode F10 tests, it also pins that comparison traces are cached
// per Options: keyed by name alone, mcf reused the Quick-scaled trace here.
func TestExtraWorkloadRidesAlongComparison(t *testing.T) {
	var mcf workloads.Workload
	for _, w := range workloads.SPEC() {
		if w.Name == "mcf" {
			mcf = w
		}
	}
	render := func(workers int) Result {
		opts := Options{Records: 6000, Workers: workers}
		opts.Extra = []ExtraWorkload{{Name: "mcf-extra", Factory: factoryFor(mcf, opts)}}
		res, err := Run("F10", opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := render(1)
	if n := len(res.Labels); n < 2 || res.Labels[n-2] != "mcf-extra" || res.Labels[n-1] != "Geomean" {
		t.Fatalf("labels %v: want mcf-extra last before Geomean", res.Labels)
	}
	for _, s := range res.Series {
		got, _ := res.Value(s.Name, "mcf-extra")
		want, ok := res.Value(s.Name, "mcf")
		if !ok || got != want {
			t.Errorf("%s: mcf-extra = %v, mcf = %v (found %v); want equal", s.Name, got, want, ok)
		}
	}
	if s, p := res.Render(), render(2).Render(); s != p {
		t.Errorf("rendering with an extra workload differs between 1 and 2 workers:\n--- 1 ---\n%s\n--- 2 ---\n%s", s, p)
	}
}

func TestResultValueMissing(t *testing.T) {
	r := Result{Labels: []string{"a"}, Series: nil}
	if _, ok := r.Value("x", "a"); ok {
		t.Fatal("missing series reported ok")
	}
	if _, ok := r.Value("x", "zz"); ok {
		t.Fatal("missing label reported ok")
	}
}
