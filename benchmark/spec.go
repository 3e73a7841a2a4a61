package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the one place that names the workloads,
// the metrics, their units and their regression bounds. The benchmark
// reports exactly the metrics it lists and fails if it cannot measure one.
//
// failed_share is not a metric there because it must be zero: it is the
// failed/attempted pair of every result line. The p90 job latency is a
// per-layer metric (serve.job_latency_p90_ms): its run-to-run spread on
// the recording host was too wide for any bound (README, "Noise").
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric entry of BENCHMARK.json. Bound is the share
// of the baseline by which an end-to-end metric may get worse.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
