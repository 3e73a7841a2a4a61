package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// agreeFiles compares two reports of the same commit, metric by metric,
// against the bounds in the descriptor. B is read as the later set: a
// row is "worse" when B is worse than A by more than the bound, and
// "unresolved" when the two sets differ by more than the bound in either
// direction — the spread is then wider than what the bound can resolve.
// It reports whether every row is within its bound.
func agreeFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	var a, b report
	for path, into := range map[string]*report{pathA: &a, pathB: &b} {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a report", wl.Name)
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			// worse is the share of A by which B is worse; negative when better.
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, ok = "worse", false
			case math.Abs(worse) > m.Bound:
				verdict, ok = "unresolved", false
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %9.4f %6.0f%%  %s\n",
				wl.Name, m.Name, va, vb, vb/va, m.Bound*100, verdict)
		}
	}
	return ok, nil
}
