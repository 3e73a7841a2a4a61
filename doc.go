// Package gxplug is a from-scratch Go reproduction of "GX-Plug: a
// Middleware for Plugging Accelerators to Distributed Graph Processing"
// (Zou, Xie, Li, Kong — ICDE 2022).
//
// The repository contains the middleware itself (the daemon-agent
// framework with pipeline shuffle, synchronization caching and skipping,
// and workload balancing), every substrate it depends on (a System V IPC
// layer, an accelerator simulator, GraphX-class and PowerGraph-class
// distributed engines, dataset generators), the baselines it is compared
// against (Gunrock-class and Lux-class engines), and a harness that
// regenerates every table and figure of the paper's evaluation.
//
// The public surface is the gx package: a registry-driven Scenario API
// (declarative JSON-round-tripping run descriptions, gx.Run with
// functional options, a per-superstep Observer hook) that every CLI and
// example is built on; everything under internal/ is implementation.
//
// Start with DESIGN.md for the system inventory and the substitutions
// made for hardware this environment cannot reach, and examples/quickstart
// for the smallest end-to-end program. `gxbench -exp …` prints any table
// or figure of the evaluation and `gxbench -list` names them all;
// performance is recorded by BENCHMARK.json (`bash benchmark/run.sh`:
// four end-to-end workloads plus per-layer metrics such as
// engine.native_superstep_ms).
package gxplug
