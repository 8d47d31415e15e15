// Package workloads synthesizes the paper's 26-application benchmark set
// (ANMLZoo + the Becchi regex suite + the three scaled-up applications of
// Section VI-A), substituting generators for the proprietary rule sets and
// traces (see DESIGN.md).
//
// Each generator reproduces its application's structural signature from
// Table II — states per NFA, NFA count, maximum topological order,
// reporting-state density, start kind, SCC structure — and couples it with
// an input generator tuned so the dynamic behaviour (hot-state fraction,
// intermediate-report volume, jump ratio) lands where the paper's
// evaluation places it. Sizes default to 1/8 of Table II, matching the
// 1/8-scaled AP half-core in internal/ap.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/lint"
	"sparseap/internal/rewrite"
)

// Group is the resource-requirement class of Section VI-A.
type Group int

const (
	// High holds applications exceeding an AP chip (2 half-cores).
	High Group = iota
	// Medium holds applications exceeding one half-core.
	Medium
	// Low holds applications fitting in one half-core.
	Low
)

// String names the group as Table II abbreviates it.
func (g Group) String() string {
	switch g {
	case High:
		return "H"
	case Medium:
		return "M"
	case Low:
		return "L"
	}
	return "?"
}

// App is one generated application: its automata network plus the input
// stream the evaluation runs it on.
type App struct {
	Name  string
	Abbr  string
	Group Group
	Net   *automata.Network
	Input []byte
	// StartOfData marks applications (Fermi, SPM) whose start states are
	// only enabled at position 0; per the paper's footnote these use the
	// entire input for the actual evaluation rather than the second half.
	StartOfData bool
}

// Config scales generation. Build refuses a negative InputLen or
// Divisor; 0 means the default.
type Config struct {
	// InputLen is the input stream length; the default 131072 (128 KiB)
	// is 1/8 of the paper's 1 MiB.
	InputLen int
	// Divisor scales NFA counts down from Table II; default 8.
	Divisor int
	// Seed makes generation deterministic; default 1.
	Seed int64
	// Optimize passes the generated network through the proof-carrying
	// rewriter (internal/rewrite) before returning it, so downstream
	// batching and partitioning see the minimized STE count. Its merges
	// are guarded at the half-core of this divisor, ap.Scaled(Divisor).
	// The report stream is provably unchanged.
	Optimize bool
}

func (c Config) withDefaults() Config {
	if c.InputLen == 0 {
		c.InputLen = 131072
	}
	if c.Divisor == 0 {
		c.Divisor = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fingerprint renders the generation parameters that determine a built
// application bit-for-bit. Checkpoint manifests store it so a resumed run
// can verify it is continuing the same application at the same scale and
// seed, and refuse to splice state from a different one.
func (c Config) Fingerprint(abbr string) string {
	c = c.withDefaults()
	return fmt.Sprintf("%s/d%d/n%d/s%d/opt%t", abbr, c.Divisor, c.InputLen, c.Seed, c.Optimize)
}

// scaled returns a paper-sized count divided by the configured divisor,
// with a floor of 1.
func (c Config) scaled(paperCount int) int {
	n := paperCount / c.Divisor
	if n < 1 {
		n = 1
	}
	return n
}

// depthCap limits a paper NFA depth so that the deepest NFA still fits the
// half-core matching this divisor (ap.Scaled): a single NFA may not
// exceed a half-core on the AP, so depths shrink along with capacities.
func (c Config) depthCap(paperDepth int) int {
	limit := ap.Scaled(c.Divisor).Capacity * 7 / 10
	if limit < 8 {
		limit = 8
	}
	if paperDepth < limit {
		return paperDepth
	}
	return limit
}

// builder generates one application.
type builder func(cfg Config, r *rand.Rand) *App

// registry maps abbreviation to builder; populated by registerAll.
var registry = map[string]builder{}

// tableOrder lists the abbreviations in Table II order (descending state
// count within descending group).
var tableOrder = []string{
	"CAV4k", "HM1500", "HM1000", "Snort_L", "HM500", "SPM", "DS", "ER",
	"RF1", "Snort", "CAV",
	"Brill", "Pro", "Fermi", "PEN", "RF2",
	"TCP", "DS06", "Rg05", "Rg1", "EM", "DS09", "DS03", "HM", "LV", "Bro217",
}

// Names returns the 26 application abbreviations in Table II order.
func Names() []string { return append([]string(nil), tableOrder...) }

// HighMediumNames returns the 16 applications of the high and medium
// groups, the set Figures 10 and 12 and Table IV evaluate.
func HighMediumNames() []string { return append([]string(nil), tableOrder[:16]...) }

// LowNames returns the 10 low-group applications (Figure 13a).
func LowNames() []string { return append([]string(nil), tableOrder[16:]...) }

// HighNames returns the 11 high-group applications (Figure 13b).
func HighNames() []string { return append([]string(nil), tableOrder[:11]...) }

// Build generates one application by abbreviation.
func Build(abbr string, cfg Config) (*App, error) {
	b, ok := registry[abbr]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown application %q (known: %v)", abbr, Names())
	}
	if cfg.Divisor < 0 {
		return nil, fmt.Errorf("workloads: divisor %d is negative", cfg.Divisor)
	}
	if cfg.InputLen < 0 {
		return nil, fmt.Errorf("workloads: input length %d is negative", cfg.InputLen)
	}
	cfg = cfg.withDefaults()
	// Each app gets an independent deterministic stream derived from the
	// seed and its name, so building a subset matches building all.
	seed := cfg.Seed
	for _, c := range abbr {
		seed = seed*131 + int64(c)
	}
	r := rand.New(rand.NewSource(seed))
	app := b(cfg, r)
	// Every generated network passes through the linter's error-severity
	// analyzers (structure, start states, symbol sets); a finding is a
	// generator bug. Warning/info analyzers are left to cmd/aplint.
	if res := lint.Run(app.Net, lint.Options{MinSeverity: lint.Error}); res.Err() != nil {
		return nil, fmt.Errorf("workloads: %s: generated invalid network: %w", abbr, res.Err())
	}
	if cfg.Optimize {
		res, err := rewrite.Rewrite(app.Net, rewrite.Options{Capacity: ap.Scaled(cfg.Divisor).Capacity})
		if err != nil {
			return nil, fmt.Errorf("workloads: %s: optimize: %w", abbr, err)
		}
		app.Net = res.Net
	}
	return app, nil
}

// BuildAll generates every application in Table II order.
func BuildAll(cfg Config) ([]*App, error) {
	apps := make([]*App, 0, len(tableOrder))
	for _, name := range tableOrder {
		a, err := Build(name, cfg)
		if err != nil {
			return nil, err
		}
		apps = append(apps, a)
	}
	return apps, nil
}

// register installs a builder; called from init functions of the
// per-application files.
func register(abbr string, b builder) {
	if _, dup := registry[abbr]; dup {
		panic("workloads: duplicate registration of " + abbr)
	}
	registry[abbr] = b
}

// checkRegistry verifies every table entry has a builder (test hook).
func checkRegistry() error {
	var missing []string
	for _, n := range tableOrder {
		if _, ok := registry[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workloads: missing builders: %v", missing)
	}
	return nil
}
