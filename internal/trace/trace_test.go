package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestRecordAndEventsSorted(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	r.Record(1, "b", now.Add(10*time.Millisecond), 5*time.Millisecond)
	r.Record(0, "a", now, 5*time.Millisecond)
	ev := r.Events()
	if len(ev) != 2 || r.Len() != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Name != "a" || ev[1].Name != "b" {
		t.Fatalf("events not sorted by start: %v", ev)
	}
}

func TestRecordNegativeDurationPanics(t *testing.T) {
	r := NewRecorder()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Record(0, "x", time.Now(), -time.Second)
}

func TestSpan(t *testing.T) {
	r := NewRecorder()
	done := r.Span(3, "tile")
	time.Sleep(2 * time.Millisecond)
	done()
	ev := r.Events()
	if len(ev) != 1 || ev[0].Worker != 3 || ev[0].Name != "tile" {
		t.Fatalf("span event = %+v", ev)
	}
	if ev[0].Dur < time.Millisecond {
		t.Fatalf("span too short: %v", ev[0].Dur)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(w, "t", time.Now(), time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("recorded %d, want 800", r.Len())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	r.Record(0, "tile-0", now, time.Millisecond)
	r.Record(1, "tile-1", now.Add(time.Millisecond), 2*time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("chrome events = %d", len(out))
	}
	if out[0]["ph"] != "X" || out[0]["name"] != "tile-0" {
		t.Fatalf("event 0 = %v", out[0])
	}
	if dur, ok := out[1]["dur"].(float64); !ok || dur < 1900 || dur > 2200 {
		t.Fatalf("dur = %v µs, want ~2000", out[1]["dur"])
	}
}

func TestUtilization(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	// Worker 0 busy the whole 10ms span, worker 1 half, worker 2 idle.
	r.Record(0, "a", now, 10*time.Millisecond)
	r.Record(1, "b", now, 5*time.Millisecond)
	u := r.Utilization(3)
	if len(u) != 3 {
		t.Fatalf("len = %d", len(u))
	}
	if u[0] < 0.99 || u[0] > 1 {
		t.Fatalf("u[0] = %v, want ~1", u[0])
	}
	if u[1] < 0.45 || u[1] > 0.55 {
		t.Fatalf("u[1] = %v, want ~0.5", u[1])
	}
	if u[2] != 0 {
		t.Fatalf("u[2] = %v, want 0", u[2])
	}
}

func TestUtilizationEmpty(t *testing.T) {
	if NewRecorder().Utilization(4) != nil {
		t.Fatal("empty recorder should return nil")
	}
}

func TestUtilizationZeroSpan(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	r.Record(0, "instant", now, 0)
	u := r.Utilization(1)
	if len(u) != 1 || u[0] != 0 {
		t.Fatalf("zero-span utilization = %v", u)
	}
}
