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
