package litmus

import (
	"fmt"
	"strconv"
	"strings"

	"cxl0/internal/core"
)

// This file implements the text format of litmus tests: cmd/cxl0-explore
// checks a script, and testdata/ holds the corpus — the paper's tests,
// the reproduction findings and worked examples — that TestScriptCorpusFiles
// and TestPaperClaims check and FuzzParseScript is seeded from. The syntax
// mirrors the paper's notation:
//
//	# three machines, one location each, all non-volatile
//	machines: M1:nvm M2:nvm M3:vol
//	locs: x@M1 y@M2
//	trace: LStore1(x,1) LFlush1(x) E1 Load1(x,0)
//	name: 3
//	expect: base=forbidden lwb=forbidden psn=forbidden
//
// Machine names must be M1..Mn (the digit after an operation name refers
// to them). Locations may be declared over several locs: lines. A trace
// may be followed by one optional name: line (the corpus numbers the
// paper's tests 1–12 and the findings 101–110 this way) and by expect:
// lines, which state each variant at most once; when present the checker
// reports agreement. Lines starting with '#' are comments. Multiple
// traces may follow one machines/locs header.

// Script is a parsed litmus script: one topology and one or more traces.
type Script struct {
	Topo   *core.Topology
	Traces []ScriptTrace
}

// ScriptTrace is one trace line plus its optional name and expectations.
type ScriptTrace struct {
	Source string
	Name   string
	Labels []core.Label
	// Expect maps variants to the expected verdict (true = allowed);
	// missing entries mean "no expectation stated".
	Expect map[core.Variant]bool
}

// ParseScript parses the litmus text format.
func ParseScript(input string) (*Script, error) {
	s := &Script{}

	lineNo := 0
	for _, raw := range strings.Split(input, "\n") {
		lineNo++
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("line %d: expected 'directive: ...', got %q", lineNo, line)
		}
		key, rest = strings.TrimSpace(key), strings.TrimSpace(rest)
		switch key {
		case "machines":
			if s.Topo != nil {
				return nil, fmt.Errorf("line %d: duplicate machines directive", lineNo)
			}
			topo := core.NewTopology()
			for i, spec := range strings.Fields(rest) {
				name, kind, ok := strings.Cut(spec, ":")
				if !ok {
					return nil, fmt.Errorf("line %d: machine spec %q must be NAME:nvm or NAME:vol", lineNo, spec)
				}
				if name != fmt.Sprintf("M%d", i+1) {
					return nil, fmt.Errorf("line %d: machines must be named M1..Mn in order, got %q", lineNo, name)
				}
				var mk core.MemKind
				switch kind {
				case "nvm":
					mk = core.NonVolatile
				case "vol", "volatile":
					mk = core.Volatile
				default:
					return nil, fmt.Errorf("line %d: unknown memory kind %q (want nvm or vol)", lineNo, kind)
				}
				topo.AddMachine(name, mk)
			}
			if topo.NumMachines() == 0 {
				return nil, fmt.Errorf("line %d: no machines declared", lineNo)
			}
			s.Topo = topo
		case "locs":
			if s.Topo == nil {
				return nil, fmt.Errorf("line %d: locs before machines", lineNo)
			}
			for _, spec := range strings.Fields(rest) {
				name, owner, ok := strings.Cut(spec, "@")
				if !ok {
					return nil, fmt.Errorf("line %d: loc spec %q must be NAME@Mi", lineNo, spec)
				}
				m, err := parseMachine(owner, s.Topo.NumMachines())
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				if _, dup := s.Topo.LocByName(name); dup {
					return nil, fmt.Errorf("line %d: duplicate location name %q", lineNo, name)
				}
				s.Topo.AddLoc(name, m)
			}
		case "trace":
			if s.Topo == nil || s.Topo.NumLocs() == 0 {
				return nil, fmt.Errorf("line %d: trace before machines/locs", lineNo)
			}
			labels, err := parseTrace(rest, s.Topo)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			s.Traces = append(s.Traces, ScriptTrace{Source: rest, Labels: labels})
		case "name", "expect":
			if len(s.Traces) == 0 {
				return nil, fmt.Errorf("line %d: %s before any trace", lineNo, key)
			}
			tr := &s.Traces[len(s.Traces)-1]
			if key == "name" {
				if tr.Name != "" || rest == "" {
					return nil, fmt.Errorf("line %d: a trace takes one non-empty name", lineNo)
				}
				tr.Name = rest
				continue
			}
			if tr.Expect == nil {
				tr.Expect = map[core.Variant]bool{}
			}
			for _, spec := range strings.Fields(rest) {
				vs, verdict, ok := strings.Cut(spec, "=")
				if !ok {
					return nil, fmt.Errorf("line %d: expect spec %q must be variant=allowed|forbidden", lineNo, spec)
				}
				variant, err := core.ParseVariant(vs)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				if _, dup := tr.Expect[variant]; dup {
					return nil, fmt.Errorf("line %d: expect: variant %q stated twice", lineNo, vs)
				}
				switch verdict {
				case "allowed":
					tr.Expect[variant] = true
				case "forbidden":
					tr.Expect[variant] = false
				default:
					return nil, fmt.Errorf("line %d: verdict %q must be allowed or forbidden", lineNo, verdict)
				}
			}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, key)
		}
	}
	if s.Topo == nil {
		return nil, fmt.Errorf("no machines directive found")
	}
	if len(s.Traces) == 0 {
		return nil, fmt.Errorf("no trace directive found")
	}
	return s, nil
}

func parseMachine(name string, count int) (core.MachineID, error) {
	if !strings.HasPrefix(name, "M") {
		return 0, fmt.Errorf("machine name %q must be M1..M%d", name, count)
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 1 || n > count {
		return 0, fmt.Errorf("machine name %q out of range M1..M%d", name, count)
	}
	return core.MachineID(n - 1), nil
}

// parseTrace parses events in the paper's notation, whitespace- or
// semicolon-separated: LStore1(x,1) RFlush2(x) GPF1 E2 Load1(x,0)
// RMW events: LRMW1(x,0,1) RRMW2(y,1,2) MRMW1(x,2,3).
// Ranged flush: RFlushRange1(x,2) flushes the 2 consecutively declared
// locations starting at x.
func parseTrace(text string, topo *core.Topology) ([]core.Label, error) {
	text = strings.ReplaceAll(text, ";", " ")
	var out []core.Label
	for _, tok := range strings.Fields(text) {
		l, err := parseEvent(tok, topo)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	return out, nil
}

var eventOps = []struct {
	prefix string
	op     core.Op
	args   int // 0: none, 1: loc, 2: loc+val, 3: loc+old+new, 4: loc+count
}{
	{"LStore", core.OpLStore, 2},
	{"RStore", core.OpRStore, 2},
	{"MStore", core.OpMStore, 2},
	{"LFlush", core.OpLFlush, 1},
	// RFlushRange must precede RFlush: prefixes are matched in order.
	{"RFlushRange", core.OpRFlushRange, 4},
	{"RFlush", core.OpRFlush, 1},
	{"LRMW", core.OpLRMW, 3},
	{"RRMW", core.OpRRMW, 3},
	{"MRMW", core.OpMRMW, 3},
	{"Load", core.OpLoad, 2},
	{"GPF", core.OpGPF, 0},
	{"E", core.OpCrash, 0},
}

func parseEvent(tok string, topo *core.Topology) (core.Label, error) {
	for _, e := range eventOps {
		if !strings.HasPrefix(tok, e.prefix) {
			continue
		}
		rest := tok[len(e.prefix):]
		// Machine index digits follow the op name.
		digits := 0
		for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
			digits++
		}
		if digits == 0 {
			return core.Label{}, fmt.Errorf("event %q: missing machine index", tok)
		}
		n, _ := strconv.Atoi(rest[:digits])
		if n < 1 || n > topo.NumMachines() {
			return core.Label{}, fmt.Errorf("event %q: machine M%d out of range", tok, n)
		}
		m := core.MachineID(n - 1)
		rest = rest[digits:]

		if e.args == 0 {
			if rest != "" {
				return core.Label{}, fmt.Errorf("event %q: unexpected arguments", tok)
			}
			return core.Label{Op: e.op, M: m}, nil
		}
		if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
			return core.Label{}, fmt.Errorf("event %q: expected (...) arguments", tok)
		}
		parts := strings.Split(rest[1:len(rest)-1], ",")
		wantParts := e.args
		if e.args == 4 {
			wantParts = 2 // loc + count
		}
		if len(parts) != wantParts {
			return core.Label{}, fmt.Errorf("event %q: want %d arguments, got %d", tok, wantParts, len(parts))
		}
		loc, ok := topo.LocByName(strings.TrimSpace(parts[0]))
		if !ok {
			return core.Label{}, fmt.Errorf("event %q: unknown location %q", tok, parts[0])
		}
		lbl := core.Label{Op: e.op, M: m, Loc: loc}
		parseVal := func(s string) (core.Val, error) {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("event %q: bad value %q", tok, s)
			}
			return core.Val(v), nil
		}
		var err error
		switch e.args {
		case 2:
			if lbl.Val, err = parseVal(parts[1]); err != nil {
				return core.Label{}, err
			}
		case 3:
			if lbl.Old, err = parseVal(parts[1]); err != nil {
				return core.Label{}, err
			}
			if lbl.New, err = parseVal(parts[2]); err != nil {
				return core.Label{}, err
			}
		case 4:
			// The count spans consecutively declared locations: script
			// locations get consecutive LocIDs in `locs:` order, so
			// RFlushRange1(x,2) flushes x and the location declared right
			// after it.
			n, perr := strconv.Atoi(strings.TrimSpace(parts[1]))
			if perr != nil || n < 1 {
				return core.Label{}, fmt.Errorf("event %q: bad range count %q", tok, parts[1])
			}
			if int(loc)+n > topo.NumLocs() {
				return core.Label{}, fmt.Errorf("event %q: range of %d runs past the declared locations", tok, n)
			}
			lbl.N = n
		}
		return lbl, nil
	}
	return core.Label{}, fmt.Errorf("unknown event %q", tok)
}
