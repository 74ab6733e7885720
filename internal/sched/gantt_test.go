package sched

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dag"
)

func builtSchedule(t *testing.T) (*dag.Graph, *Schedule) {
	t.Helper()
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 0, 2)
	s.MustPlace(ids[2], 1, 7)
	s.MustPlace(ids[3], 1, 14)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, s
}

func TestGanttRender(t *testing.T) {
	_, s := builtSchedule(t)
	var buf bytes.Buffer
	if err := Gantt(&buf, s, 30); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("Gantt missing processor rows:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "d") {
		t.Errorf("Gantt missing task glyphs:\n%s", out)
	}
	if !strings.Contains(out, ".") {
		t.Errorf("Gantt missing idle cells:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	g, _ := diamond(t)
	var buf bytes.Buffer
	if err := Gantt(&buf, New(g, 2), 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty schedule not labelled")
	}
}
