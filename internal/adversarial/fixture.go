package adversarial

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/gen"
)

// A counterexample fixture is a .tg graph file whose header comments
// carry the adversarial provenance: the algorithm pair, the machine
// size, the candidate that produced the instance, the two measured
// makespans, and a pinned lower bound on the relative gap. Because the
// metadata lives in "# adv <key> <value>" comment lines, every fixture
// is also a plain .tg file: dag.ReadText and the cmd tools load it
// unchanged, while ReadFixture additionally recovers the provenance.
// Regression tests re-run the pair on the stored graph and assert the
// gap's sign and lower bound, making each searched finding a permanent
// tier-1 test.
//
// Fixtures also exist in the binary container: a .tgb file whose meta
// string holds the same "# adv" header lines. ReadFixture sniffs the
// magic and accepts either form; WriteFixtureBinary produces the
// binary one. Such a fixture is equally a plain .tgb file for every
// dag.ReadAny consumer.

// Fixture is one archived counterexample instance.
type Fixture struct {
	// AlgA and AlgB name the compared algorithms; the fixture pins that
	// B's schedule is shorter (LenA > LenB).
	AlgA, AlgB string
	// Procs is the machine size the makespans were measured on.
	Procs int
	// Candidate records how the instance was constructed (provenance
	// only — the graph below is authoritative).
	Candidate
	// LenA and LenB are the measured makespans at archive time.
	LenA, LenB int64
	// MinGap is the pinned lower bound on the relative gap
	// (LenA-LenB)/LenB that regression tests assert.
	MinGap float64
	// Objective names the search objective the lengths were measured
	// under; empty means the static-makespan "gap" objective. Fixtures
	// found under "fault-gap" record fault-effective makespans, and
	// regression tests re-run them through the canonical fault scenario
	// instead of static scheduling.
	Objective string
	// G is the instance itself.
	G *dag.Graph
}

// fixtureHeader renders the "# adv" provenance lines shared by both
// fixture encodings.
func fixtureHeader(f *Fixture) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# adversarial counterexample: %s beats %s on this instance\n", f.AlgB, f.AlgA)
	fmt.Fprintf(&sb, "# adv pair %s %s\n", f.AlgA, f.AlgB)
	fmt.Fprintf(&sb, "# adv procs %d\n", f.Procs)
	fmt.Fprintf(&sb, "# adv family %s\n", f.Family)
	fmt.Fprintf(&sb, "# adv params %s\n", gen.CanonicalParams(f.Params))
	fmt.Fprintf(&sb, "# adv seed %d\n", f.Seed)
	fmt.Fprintf(&sb, "# adv perturb %s %d\n", gen.FormatFloatParam(f.Perturb), f.PerturbSeed)
	fmt.Fprintf(&sb, "# adv lengths %d %d\n", f.LenA, f.LenB)
	fmt.Fprintf(&sb, "# adv mingap %s\n", gen.FormatFloatParam(f.MinGap))
	if f.Objective != "" && f.Objective != "gap" {
		fmt.Fprintf(&sb, "# adv objective %s\n", f.Objective)
	}
	return sb.String()
}

// WriteFixture serializes a fixture: the provenance header followed by
// the graph in the .tg text format.
func WriteFixture(w io.Writer, f *Fixture) error {
	if _, err := io.WriteString(w, fixtureHeader(f)); err != nil {
		return err
	}
	return dag.WriteText(w, f.G)
}

// WriteFixtureBinary serializes a fixture as a .tgb file carrying the
// provenance header in the binary container's meta string.
func WriteFixtureBinary(w io.Writer, f *Fixture) error {
	return dag.WriteBinaryMeta(w, f.G, fixtureHeader(f))
}

// ReadFixture parses a fixture in either encoding: the text form
// written by WriteFixture ("# adv" header lines plus the graph body,
// which ReadText parses, ignoring the comments) or the binary form
// written by WriteFixtureBinary (detected by the .tgb magic; the
// header lines come from the container's meta string).
func ReadFixture(r io.Reader) (*Fixture, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	header := data
	var g *dag.Graph
	if bytes.HasPrefix(data, []byte(dag.BinaryMagic)) {
		var meta string
		if g, meta, err = dag.ReadBinaryMeta(bytes.NewReader(data)); err != nil {
			return nil, err
		}
		header = []byte(meta)
	}
	f := &Fixture{}
	sc := bufio.NewScanner(bytes.NewReader(header))
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || fields[0] != "#" || fields[1] != "adv" {
			continue
		}
		key, args := fields[2], fields[3:]
		var perr error
		switch key {
		case "pair":
			if len(args) != 2 {
				perr = fmt.Errorf("want 2 algorithm names, got %d", len(args))
			} else {
				f.AlgA, f.AlgB = args[0], args[1]
			}
		case "procs":
			f.Procs, perr = strconv.Atoi(args[0])
		case "family":
			f.Family = args[0]
		case "params":
			f.Params, perr = gen.ParseCanonicalParams(strings.Join(args, " "))
		case "seed":
			f.Seed, perr = strconv.ParseInt(args[0], 10, 64)
		case "perturb":
			if len(args) != 2 {
				perr = fmt.Errorf("want spread and seed, got %d fields", len(args))
			} else {
				if f.Perturb, perr = strconv.ParseFloat(args[0], 64); perr == nil {
					f.PerturbSeed, perr = strconv.ParseInt(args[1], 10, 64)
				}
			}
		case "lengths":
			if len(args) != 2 {
				perr = fmt.Errorf("want 2 lengths, got %d", len(args))
			} else {
				if f.LenA, perr = strconv.ParseInt(args[0], 10, 64); perr == nil {
					f.LenB, perr = strconv.ParseInt(args[1], 10, 64)
				}
			}
		case "mingap":
			f.MinGap, perr = strconv.ParseFloat(args[0], 64)
		case "objective":
			f.Objective = args[0]
		default:
			perr = fmt.Errorf("unknown key")
		}
		if perr != nil {
			return nil, fmt.Errorf("adversarial: fixture header %q: %v", sc.Text(), perr)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if f.AlgA == "" || f.AlgB == "" {
		return nil, fmt.Errorf("adversarial: fixture is missing the '# adv pair' header")
	}
	if f.Procs < 1 {
		return nil, fmt.Errorf("adversarial: fixture is missing the '# adv procs' header")
	}
	if g == nil {
		if g, err = dag.ReadText(bytes.NewReader(data)); err != nil {
			return nil, err
		}
	}
	f.G = g
	return f, nil
}

// FixtureName returns the canonical file name an archived fixture gets:
// family and pair, lowercased, with a 1-based rank suffix.
func FixtureName(family, algA, algB string, rank int) string {
	clean := func(s string) string {
		return strings.ToLower(strings.ReplaceAll(s, "/", "-"))
	}
	return fmt.Sprintf("%s-%s-vs-%s-%d.tg", clean(family), clean(algA), clean(algB), rank)
}

// Archive writes a report's top candidates with positive scores as
// fixtures under dir, pinning each gap's floor to three decimals.
// It returns the written paths in rank order. Candidates that do not
// beat algA (non-positive gap) are skipped: a fixture asserts a strict
// counterexample, not a near miss.
func Archive(dir string, rep *Report, procs int, k int) ([]string, error) {
	if rep.AlgA == "" || rep.AlgB == "" {
		return nil, fmt.Errorf("adversarial: report carries no algorithm pair to archive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	rank := 0
	for _, found := range rep.Top {
		if rank >= k {
			break
		}
		gap := GapObjective{}.Score(found.LenA, found.LenB)
		if gap <= 0 || found.Graph == nil {
			continue
		}
		rank++
		fx := &Fixture{
			AlgA:      rep.AlgA,
			AlgB:      rep.AlgB,
			Procs:     procs,
			Candidate: found.Candidate,
			LenA:      found.LenA,
			LenB:      found.LenB,
			// Pin a slightly slack floor so the fixture keeps passing
			// under harmless rounding churn while still asserting most
			// of the found margin.
			MinGap:    floorGap(gap),
			Objective: rep.Objective,
		}
		path := filepath.Join(dir, FixtureName(found.Family, rep.AlgA, rep.AlgB, rank))
		file, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		fx.G = found.Graph
		if err := WriteFixture(file, fx); err != nil {
			file.Close()
			return nil, err
		}
		if err := file.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// floorGap rounds a gap down to three decimals (minimum one
// thousandth), the lower bound archived fixtures pin.
func floorGap(gap float64) float64 {
	floored := float64(int(gap*1000)) / 1000
	if floored < 0.001 {
		floored = 0.001
	}
	return floored
}

// LoadFixtures reads every .tg and .tgb fixture under dir, sorted by
// file name.
func LoadFixtures(dir string) (map[string]*Fixture, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.tg"))
	if err != nil {
		return nil, err
	}
	binPaths, err := filepath.Glob(filepath.Join(dir, "*.tgb"))
	if err != nil {
		return nil, err
	}
	paths = append(paths, binPaths...)
	sort.Strings(paths)
	out := map[string]*Fixture{}
	for _, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		fx, err := ReadFixture(file)
		file.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[filepath.Base(path)] = fx
	}
	return out, nil
}
