package sched

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/dag"
)

// Gantt renders the schedule as a text Gantt chart, one row per used
// processor, with time quantized into at most maxCols character cells.
// Cells show the node's last label character or its ID digit; idle time
// renders as '.'; a cell spanning several tasks shows '#'.
func Gantt(w io.Writer, s *Schedule, maxCols int) error {
	if maxCols < 10 {
		maxCols = 10
	}
	length := s.Length()
	if length == 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	scale := float64(maxCols) / float64(length)
	var b strings.Builder
	fmt.Fprintf(&b, "time 0..%d, %d cols (1 col = %.2f time units)\n",
		length, maxCols, float64(length)/float64(maxCols))
	for p := 0; p < s.NumProcs(); p++ {
		slots := s.Slots(p)
		if len(slots) == 0 {
			continue
		}
		row := make([]byte, maxCols)
		for i := range row {
			row[i] = '.'
		}
		for _, sl := range slots {
			from := int(float64(sl.Start) * scale)
			to := int(float64(sl.Finish) * scale)
			if to <= from {
				to = from + 1
			}
			if to > maxCols {
				to = maxCols
			}
			mark := glyphFor(s.g, sl.Node)
			for i := from; i < to; i++ {
				if row[i] != '.' {
					row[i] = '#'
				} else {
					row[i] = mark
				}
			}
		}
		fmt.Fprintf(&b, "P%-3d |%s|\n", p, row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func glyphFor(g *dag.Graph, n dag.NodeID) byte {
	if label := g.Label(n); label != "" {
		return label[len(label)-1]
	}
	return byte('0' + int(n)%10)
}

// WriteText serializes the schedule placements as text, one line per
// node: "place <node> <proc> <start>". Paired with ReadText it allows
// storing schedules next to their graphs.
func WriteText(w io.Writer, s *Schedule) error {
	var b strings.Builder
	fmt.Fprintf(&b, "procs %d\n", s.NumProcs())
	for p := 0; p < s.NumProcs(); p++ {
		for _, sl := range s.Slots(p) {
			fmt.Fprintf(&b, "place %d %d %d\n", sl.Node, p, sl.Start)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ReadText parses a schedule for g from the text format and validates
// it.
func ReadText(r io.Reader, g *dag.Graph) (*Schedule, error) {
	var procs int
	var s *Schedule
	var n, p int
	var start int64
	line := 0
	for {
		line++
		var directive string
		_, err := fmt.Fscan(r, &directive)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sched: line %d: %w", line, err)
		}
		switch directive {
		case "procs":
			if _, err := fmt.Fscan(r, &procs); err != nil {
				return nil, fmt.Errorf("sched: line %d: %w", line, err)
			}
			s = New(g, procs)
		case "place":
			if s == nil {
				return nil, fmt.Errorf("sched: line %d: place before procs", line)
			}
			if _, err := fmt.Fscan(r, &n, &p, &start); err != nil {
				return nil, fmt.Errorf("sched: line %d: %w", line, err)
			}
			if n < 0 || n >= g.NumNodes() {
				return nil, fmt.Errorf("sched: line %d: unknown node %d", line, n)
			}
			if err := s.Place(dag.NodeID(n), p, start); err != nil {
				return nil, fmt.Errorf("sched: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("sched: line %d: unknown directive %q", line, directive)
		}
	}
	if s == nil {
		return nil, fmt.Errorf("sched: missing procs header")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
