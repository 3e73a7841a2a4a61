package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"gxplug/gx"
	"gxplug/internal/harness"
)

// gxbench runs the command in-process and returns its exit status and
// both output streams.
func gxbench(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListNamesEveryExperiment(t *testing.T) {
	code, out, _ := gxbench("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, e := range experiments(nil) {
		if !strings.Contains(out, "  "+e.name+" ") {
			t.Errorf("-list omits %q:\n%s", e.name, out)
		}
	}
}

func TestUnknownNamesExit2(t *testing.T) {
	var names []string
	for _, e := range experiments(nil) {
		names = append(names, e.name)
	}
	sort.Strings(names)
	code, _, errOut := gxbench("-exp", "fig99")
	if want := "(registered: " + strings.Join(names, ", ") + ")"; code != 2 || !strings.Contains(errOut, want) {
		t.Fatalf("unknown -exp exited %d with %q, want 2 and %q", code, errOut, want)
	}

	code, _, errOut = gxbench("-exp", "fig8", "-dataset", "no-such-graph")
	if want := "(registered: " + strings.Join(gx.Datasets(), ", ") + ")"; code != 2 || !strings.Contains(errOut, want) {
		t.Fatalf("unknown -dataset exited %d with %q, want 2 and %q", code, errOut, want)
	}
}

func TestZeroScaleExit2(t *testing.T) {
	code, out, errOut := gxbench("-scale", "0", "-exp", "table1")
	if code != 2 {
		t.Fatalf("-scale 0 exited %d", code)
	}
	want := harness.Options{Scale: 0, Seed: harness.Default().Seed}.Validate()
	if want == nil || strings.TrimSpace(errOut) != want.Error() {
		t.Fatalf("-scale 0 stderr %q, want %v", errOut, want)
	}
	if out != "" {
		t.Fatalf("-scale 0 wrote figures:\n%s", out)
	}
}

func TestTable1PrintsHarnessTable(t *testing.T) {
	res, err := harness.TableDatasets(harness.Default())
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := gxbench("-exp", "table1")
	if code != 0 {
		t.Fatalf("-exp table1 exited %d: %s", code, errOut)
	}
	if !strings.HasPrefix(out, res.String()+"\n") {
		t.Fatalf("-exp table1 printed\n%s\nwant it to start with\n%s", out, res.String())
	}
}
