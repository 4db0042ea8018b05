package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"securearchive/internal/store/diskstore"
)

// small shrinks a workload's preload and warm-up so a test sets up in a
// second.
func small(w workload) workload {
	w.preload = max(2, min(w.preload, 8))
	w.warmup = min(w.warmup, 8)
	return w
}

// transparencyRun drives a fixed number of requests per client and
// returns what the service held afterwards: every object's bytes as
// read back, the cluster's shard-write count and the bytes on disk per
// user byte.
func transparencyRun(t *testing.T, w workload, traced bool) (map[int][]byte, int, float64) {
	t.Helper()
	ctx := context.Background()
	p := newPayloads(7, w.objSize)
	d, err := deploy(t.TempDir(), &w, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	pre := d.preload(ctx, &w, p)
	win := d.drive(ctx, newPlans(&w, 7), p, time.Time{}, 12)
	disk, err := d.diskBytes()
	if err != nil {
		t.Fatal(err)
	}
	writes := d.cluster.Puts()
	rb, got := d.readBack(ctx, p, acked(pre, win), true)
	for _, tl := range []*tally{pre, win, rb} {
		for _, err := range tl.errs {
			t.Errorf("traced=%t: %v", traced, err)
		}
	}
	return got, writes, ratio(float64(disk), float64(pre.bytes[opPut]+win.bytes[opPut]))
}

// TestDecoratorTransparency: the traced run's decorators must not change
// what the program does — same seed, same objects, same shard writes,
// same bytes on disk.
func TestDecoratorTransparency(t *testing.T) {
	for _, name := range []string{"archive-mix", "bulk-stream"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w = small(w)
		t.Run(name, func(t *testing.T) {
			plainObjs, plainWrites, plainDisk := transparencyRun(t, w, false)
			tracedObjs, tracedWrites, tracedDisk := transparencyRun(t, w, true)
			if len(plainObjs) != len(tracedObjs) {
				t.Fatalf("read back %d objects plain, %d traced", len(plainObjs), len(tracedObjs))
			}
			for i, b := range plainObjs {
				if !bytes.Equal(b, tracedObjs[i]) {
					t.Errorf("object %d differs between plain and traced runs", i)
				}
			}
			if plainWrites != tracedWrites {
				t.Errorf("shard writes: plain %d, traced %d", plainWrites, tracedWrites)
			}
			if plainDisk != tracedDisk {
				t.Errorf("disk_bytes_per_user_byte: plain %v, traced %v", plainDisk, tracedDisk)
			}
		})
	}
}

func TestCheckProduction(t *testing.T) {
	if err := checkProduction(2048, diskstore.FsyncCommit); err != nil {
		t.Errorf("production parameters refused: %v", err)
	}
	for _, c := range []struct {
		bits  int
		fsync string
	}{{256, diskstore.FsyncCommit}, {2048, diskstore.FsyncNever}, {2048, diskstore.FsyncAlways}} {
		if checkProduction(c.bits, c.fsync) == nil {
			t.Errorf("accepted %d bits with fsync %q", c.bits, c.fsync)
		}
	}
}

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

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestSchema checks BENCHMARK.json against the command: names are
// well-formed, every workload exists, and a seconds-long smoke run of
// each workload prints exactly the declared metrics, each with its
// declared unit, and a final line that parses.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("malformed name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		check(m.Name)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}

	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			opt := options{seed: 3, seconds: 0.5, trace: traced, workdir: t.TempDir(), root: "..", setups: 1}
			if err := run(context.Background(), opt, small(w), &out); err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s not printed", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: %s printed in %q, declared %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !strings.Contains(out.String(), "  "+m.Name+" "):
					t.Errorf("%s trace=%t: %s missing from the readable report", w.name, traced, m.Name)
				}
			}
		}
	}
}
