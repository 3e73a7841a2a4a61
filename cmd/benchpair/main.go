// Command benchpair measures one benchmark workload on a base revision
// and on the working tree, in pairs (choosing-metrics §8): the base's
// committed files are unpacked into a temporary directory (git archive
// piped into tar — nothing is registered in .git, so it works wherever
// the repository can be read), both trees run
// benchmark/run.sh --workload W --trace 0 -out, alternating which goes
// first, each pair is judged by the benchmark's own -agree, and at the
// end every end-to-end metric is summarized per side — median, quartiles
// and how many pairs the working tree won.
//
//	go run ./cmd/benchpair -base HEAD~1 -workload plugged-warm [-pairs 10] [-seed 42]
//
// It only calls benchmark/run.sh; what is built and how long a run takes
// is the benchmark's business on either side.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type report struct {
	Workloads map[string]struct {
		EndToEnd map[string]struct {
			Value float64 `json:"value"`
		} `json:"end_to_end"`
	} `json:"workloads"`
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against")
	workload := flag.String("workload", "", "benchmark workload to run")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seed := flag.Int64("seed", 42, "benchmark seed, the same on both sides")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpair -base REV -workload NAME [-pairs N] [-seed S]")
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs int, seed int64) error {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse: %w", err)
	}
	head := strings.TrimSpace(string(out))
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "base")
	if err := unpack(head, base, baseTree); err != nil {
		return err
	}

	// -agree wants every workload of the descriptor in both reports; the
	// reports here hold one, so it is given a descriptor that lists one.
	metrics, spec, err := oneWorkloadSpec(filepath.Join(head, "BENCHMARK.json"), workload, tmp)
	if err != nil {
		return err
	}

	sides := [2]struct{ name, tree string }{{"base", baseTree}, {"head", head}}
	values := make([][2][]float64, len(metrics)) // per metric and side, one value per pair
	for i := 0; i < pairs; i++ {
		var files [2]string
		for k := 0; k < 2; k++ {
			s := (i + k) % 2 // even pairs run the base first, odd pairs the head
			files[s] = filepath.Join(tmp, fmt.Sprintf("%s-%d.json", sides[s].name, i))
			fmt.Printf("pair %d/%d: %s\n", i+1, pairs, sides[s].name)
			if err := sh(sides[s].tree, nil, "bash", "benchmark/run.sh", "--workload", workload,
				"--seed", fmt.Sprint(seed), "--trace", "0", "-out", files[s]); err != nil {
				return err
			}
			var rep report
			data, err := os.ReadFile(files[s])
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &rep); err != nil {
				return fmt.Errorf("%s: %w", files[s], err)
			}
			for mi, m := range metrics {
				values[mi][s] = append(values[mi][s], rep.Workloads[workload].EndToEnd[m.Name].Value)
			}
		}
		// Exit status 1 only says that some row is outside its bound.
		if err := sh(head, os.Stdout, "bash", "benchmark/run.sh", "-spec", spec, "-agree", files[0], files[1]); err != nil {
			if exit := (*exitError)(nil); !errors.As(err, &exit) || exit.code != 1 {
				return err
			}
		}
	}

	fmt.Printf("\n%s over %d pairs, base %s (A) vs working tree (B): median [q1, q3]\n", workload, pairs, base)
	for mi, m := range metrics {
		a, b := values[mi][0], values[mi][1]
		wins := 0
		for i := range a {
			if m.Better == "lower" && b[i] < a[i] || m.Better == "higher" && b[i] > a[i] {
				wins++
			}
		}
		fmt.Printf("%-22s A %s  B %s  %s, B better in %d/%d\n", m.Name, quartiles(a), quartiles(b), m.Unit, wins, pairs)
	}
	return nil
}

// unpack extracts revision rev of the repository at repo into dir: git
// archive rev | tar -x -C dir.
func unpack(repo, rev, dir string) error {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	archive.Dir, archive.Stderr = repo, os.Stderr
	tar := exec.Command("tar", "-x", "-C", dir)
	tar.Stderr = os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	tar.Stdin = pipe
	if err := tar.Start(); err != nil {
		return fmt.Errorf("tar: %w", err)
	}
	archiveErr := archive.Run()
	tarErr := tar.Wait()
	if archiveErr != nil {
		return fmt.Errorf("git archive %s: %w", rev, archiveErr)
	}
	if tarErr != nil {
		return fmt.Errorf("tar -x: %w", tarErr)
	}
	return nil
}

// oneWorkloadSpec writes a copy of the descriptor that lists only the
// given workload, and returns the descriptor's end-to-end metrics.
func oneWorkloadSpec(path, workload, dir string) ([]metric, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var spec map[string]json.RawMessage
	var workloads []map[string]any
	var metrics []metric
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(spec["workloads"], &workloads); err != nil {
		return nil, "", fmt.Errorf("%s: workloads: %w", path, err)
	}
	if err := json.Unmarshal(spec["end_to_end"], &metrics); err != nil {
		return nil, "", fmt.Errorf("%s: end_to_end: %w", path, err)
	}
	var kept []map[string]any
	for _, w := range workloads {
		if w["name"] == workload {
			kept = append(kept, w)
		}
	}
	if len(kept) == 0 {
		return nil, "", fmt.Errorf("%s lists no workload %q", path, workload)
	}
	spec["workloads"], _ = json.Marshal(kept) // plain decoded data: cannot fail
	data, _ = json.Marshal(spec)
	out := filepath.Join(dir, "spec.json")
	return metrics, out, os.WriteFile(out, data, 0o644)
}

// quartiles formats the median and the quartiles of xs (linear
// interpolation between order statistics).
func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return fmt.Sprintf("%.6g [%.6g, %.6g]", at(0.5), at(0.25), at(0.75))
}

type exitError struct {
	cmd  string
	code int
}

func (e *exitError) Error() string { return fmt.Sprintf("%s: exit status %d", e.cmd, e.code) }

// sh runs a command in dir, its stderr passed through and its stdout sent
// to stdout (nil: dropped — the benchmark's report goes to -out).
func sh(dir string, stdout *os.File, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	if stdout != nil {
		cmd.Stdout = stdout
	}
	err := cmd.Run()
	if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
		return &exitError{cmd: name + " " + strings.Join(args, " "), code: exit.ExitCode()}
	}
	return err
}
