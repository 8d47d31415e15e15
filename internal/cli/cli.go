// Package cli is the one flag set the commands read their networks and
// their scale from. A command registers the source flags it accepts
// (-app, -all, -anml, -in, -regex) and, when it generates workloads, the
// scale flags (-divisor, -input, -seed, and -capacity where it takes
// one). Parse rejects a non-positive -divisor or -input and derives the
// AP half-core from the divisor, ap.Scaled(divisor), unless -capacity is
// given; Targets builds the named networks.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sparseap/internal/anml"
	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/regexc"
	"sparseap/internal/symset"
	"sparseap/internal/workloads"
)

// Source is a set of source flags.
type Source uint8

const (
	App   Source = 1 << iota // -app: one generated application
	All                      // -all: every generated application
	ANML                     // -anml: an ANML file
	Regex                    // -regex: compiled patterns (repeatable)
	In                       // -in: the input stream of the -anml network
)

// CapacityUse says what a command's -capacity sizes; the zero value
// registers no -capacity.
type CapacityUse uint8

const (
	// Checks: the capacity bounds a lint check or a rewrite, and a value
	// <= 0 turns the bound off.
	Checks CapacityUse = 1 + iota
	// Model: the capacity sizes the AP model a run executes on, so it
	// must be positive.
	Model
)

// Spec lists the flags one command registers.
type Spec struct {
	Sources   Source
	Scale     bool        // -divisor, -input and -seed
	Capacity  CapacityUse // -capacity, when Checks or Model
	Lax       bool        // read -anml leniently, so a broken network reaches the analyzers
	NeedInput bool        // an -anml network must come with -in
}

// Flags is one command's source and scale flags. Parse fills Workloads
// and AP.
type Flags struct {
	App, ANML, In string
	All           bool

	// Workloads is the generation scale of -app and -all.
	Workloads workloads.Config
	// AP is the half-core: ap.Scaled(-divisor), or -capacity when given.
	AP ap.Config

	cmd      string
	spec     Spec
	fs       *flag.FlagSet
	capacity int
	regex    []string
}

// Target is one network a command works on.
type Target struct {
	Name  string // the -app abbreviation, the -anml path, or "regex"
	Net   *automata.Network
	Input []byte         // the generated input or the -in file; nil without one
	App   *workloads.App // the generated application; nil for -anml and -regex
}

// Command registers spec's flags on the command line of cmd.
func Command(cmd string, spec Spec) *Flags {
	return register(cmd, flag.CommandLine, spec)
}

func register(cmd string, fs *flag.FlagSet, spec Spec) *Flags {
	f := &Flags{cmd: cmd, spec: spec, fs: fs,
		Workloads: workloads.Config{Divisor: 8, InputLen: 131072, Seed: 1}}
	has := func(s Source) bool { return spec.Sources&s != 0 }
	if has(App) {
		fs.StringVar(&f.App, "app", "", "built-in application abbreviation (see apstat -list)")
	}
	if has(All) {
		fs.BoolVar(&f.All, "all", false, "every generated application, in Table II order")
	}
	if has(ANML) {
		fs.StringVar(&f.ANML, "anml", "", "ANML automaton file")
	}
	if has(In) {
		fs.StringVar(&f.In, "in", "", "input stream file (with -anml)")
	}
	if has(Regex) {
		fs.Func("regex", "pattern to compile (repeatable)", func(s string) error {
			f.regex = append(f.regex, s)
			return nil
		})
	}
	if spec.Scale {
		fs.IntVar(&f.Workloads.Divisor, "divisor", f.Workloads.Divisor, "workload scale divisor")
		fs.IntVar(&f.Workloads.InputLen, "input", f.Workloads.InputLen, "generated input length")
		fs.Int64Var(&f.Workloads.Seed, "seed", f.Workloads.Seed, "generation seed")
	}
	switch spec.Capacity {
	case Checks:
		fs.IntVar(&f.capacity, "capacity", 0, "AP half-core capacity in STEs (default: the paper's 24000 / divisor; <= 0 turns the capacity check off)")
	case Model:
		fs.IntVar(&f.capacity, "capacity", 0, "AP half-core capacity in STEs (default: the paper's 24000 / divisor)")
	}
	return f
}

// Parse parses the command line; a usage error exits 2.
func (f *Flags) Parse() { f.exit(f.parse(os.Args[1:])) }

// Targets builds the networks the source flags name: every application
// in Table II order under -all, else the -app application, else the
// -anml file, else the -regex patterns. An error exits 2.
func (f *Flags) Targets() []Target {
	ts, err := f.targets()
	f.exit(err)
	return ts
}

func (f *Flags) exit(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.cmd, err)
		os.Exit(2)
	}
}

func (f *Flags) parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.Workloads.Divisor <= 0 {
		return fmt.Errorf("-divisor must be positive, got %d", f.Workloads.Divisor)
	}
	if f.Workloads.InputLen <= 0 {
		return fmt.Errorf("-input must be positive, got %d", f.Workloads.InputLen)
	}
	f.AP = ap.Scaled(f.Workloads.Divisor)
	explicit := false
	f.fs.Visit(func(fl *flag.Flag) { explicit = explicit || fl.Name == "capacity" })
	if explicit {
		if f.spec.Capacity == Model && f.capacity <= 0 {
			return fmt.Errorf("-capacity must be positive, got %d", f.capacity)
		}
		f.AP = f.AP.WithCapacity(f.capacity)
	}
	return nil
}

func (f *Flags) targets() ([]Target, error) {
	switch {
	case f.All:
		apps, err := workloads.BuildAll(f.Workloads)
		if err != nil {
			return nil, err
		}
		ts := make([]Target, len(apps))
		for i, a := range apps {
			ts[i] = Target{Name: a.Abbr, Net: a.Net, Input: a.Input, App: a}
		}
		return ts, nil
	case f.App != "":
		a, err := workloads.Build(f.App, f.Workloads)
		if err != nil {
			return nil, err
		}
		return []Target{{Name: a.Abbr, Net: a.Net, Input: a.Input, App: a}}, nil
	case f.ANML != "":
		if f.spec.NeedInput && f.In == "" {
			return nil, fmt.Errorf("-anml requires -in")
		}
		t, err := f.readANML()
		return []Target{t}, err
	case len(f.regex) > 0:
		net, err := regexc.CompileAll(f.regex, regexc.Options{})
		return []Target{{Name: "regex", Net: net}}, err
	}
	var need []string
	for i, name := range []string{"-app", "-all", "-anml", "-regex"} {
		if f.spec.Sources&(App<<i) != 0 {
			need = append(need, name)
		}
	}
	last := len(need) - 1
	return nil, fmt.Errorf("need %s or %s", strings.Join(need[:last], ", "), need[last])
}

func (f *Flags) readANML() (Target, error) {
	t := Target{Name: f.ANML}
	file, err := os.Open(f.ANML)
	if err != nil {
		return t, err
	}
	defer file.Close()
	if f.spec.Lax {
		t.Net, err = anml.ReadLax(file)
	} else {
		t.Net, err = anml.Read(file)
	}
	if err == nil && f.In != "" {
		t.Input, err = os.ReadFile(f.In)
	}
	return t, err
}

// Alphabet parses an -alphabet symbol class. A bare multi-symbol class
// may drop its brackets (a-z for [a-z]); "" is the empty set, which the
// analyzers and the rewriter read as all 256 symbols.
func Alphabet(spec string) (symset.Set, error) {
	if spec == "" {
		return symset.Set{}, nil
	}
	bare := spec == "*" || len(spec) == 1 || strings.HasPrefix(spec, "[") ||
		len(spec) == 2 && spec[0] == '\\' // a single escaped symbol or class shorthand
	if !bare {
		spec = "[" + spec + "]"
	}
	return symset.Parse(spec)
}
