// Package scenario is the experiment registry: the single, versioned
// measurement surface of the simulator. A Scenario couples a name and a
// one-line summary with a set of declared, typed parameters and a Run
// function that produces named stats.Sections — the unit the golden
// BENCH files are compared in. Every experiment registers itself here
// (internal/experiments does so at init), and cmd/simctl is a thin shell
// over Register/Get/List: adding a scenario is one function plus one
// Register call, with no new binary and no hand-rolled flag parsing.
package scenario

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/stats"
)

// Env fixes the hardware, calibration, and scale of a scenario run —
// the uniform knobs every scenario honors (cmd/simctl's -quick, -seed,
// and -workers flags). Scenario-specific axes are declared Params, not
// Env fields.
type Env struct {
	Node   hw.Node
	Params perf.Params
	Seed   uint64
	// Quick shrinks workloads (for tests, CI smoke, and benches);
	// full-size runs reproduce the paper's scales.
	Quick bool
	// Workers bounds the sweep worker pool, the only parallelism: each
	// cell runs its deployment on one goroutine. 0 uses GOMAXPROCS, 1
	// runs the cells in order. Results are byte-identical at every
	// setting — sweep cells are independent and rows assemble in
	// submission order.
	Workers int
	// Obs, when set, records one simulator run of the scenario: its
	// request lifecycle spans, controller time series and engine
	// iteration records (see internal/obs). Every run goes through one
	// runner, which gives Obs to the sweep's marked cell, else to its
	// first. nil keeps every run on the untraced fast path.
	Obs *obs.Observer
}

// Kind is the declared type of a Param. Lists are comma-separated on
// the command line (-p replicas=2,4,8).
type Kind int

const (
	String Kind = iota
	Bool
	Int
	Float
	Duration
	Strings
	Ints
	Floats
	Durations
)

// String names the kind the way `simctl list` prints it.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case Duration:
		return "duration"
	case Strings:
		return "string,..."
	case Ints:
		return "int,..."
	case Floats:
		return "float,..."
	case Durations:
		return "duration,..."
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Param declares one typed scenario parameter. Default may be nil for
// list kinds (meaning "scenario chooses its own default axis"); scalar
// kinds must carry a default of the matching Go type (string, bool,
// int, float64, time.Duration).
type Param struct {
	Name    string
	Kind    Kind
	Default any
	Help    string
}

// Values holds one parsed parameter set: every declared param is
// present (explicit or default) with its Go-typed value. The typed
// getters panic on undeclared names — that is a registration bug, not
// an input error (inputs are validated by Parse).
type Values map[string]any

func (v Values) get(name string) any {
	val, ok := v[name]
	if !ok {
		panic(fmt.Sprintf("scenario: param %q not declared", name))
	}
	return val
}

// String returns a string param.
func (v Values) String(name string) string { return v.get(name).(string) }

// Bool returns a bool param.
func (v Values) Bool(name string) bool { return v.get(name).(bool) }

// Int returns an int param.
func (v Values) Int(name string) int { return v.get(name).(int) }

// Float returns a float param.
func (v Values) Float(name string) float64 { return v.get(name).(float64) }

// Duration returns a duration param.
func (v Values) Duration(name string) time.Duration { return v.get(name).(time.Duration) }

// StringList returns a string-list param (nil when defaulted to nil).
func (v Values) StringList(name string) []string {
	if v.get(name) == nil {
		return nil
	}
	return v.get(name).([]string)
}

// IntList returns an int-list param (nil when defaulted to nil).
func (v Values) IntList(name string) []int {
	if v.get(name) == nil {
		return nil
	}
	return v.get(name).([]int)
}

// FloatList returns a float-list param (nil when defaulted to nil).
func (v Values) FloatList(name string) []float64 {
	if v.get(name) == nil {
		return nil
	}
	return v.get(name).([]float64)
}

// DurationList returns a duration-list param (nil when defaulted to nil).
func (v Values) DurationList(name string) []time.Duration {
	if v.get(name) == nil {
		return nil
	}
	return v.get(name).([]time.Duration)
}

// Scenario is one registered experiment: a named, parameterized
// producer of bench sections. Run must be deterministic in (Env,
// Values) up to wall-clock measurements.
type Scenario struct {
	// Name is the registry key and the BENCH_<name>.json stem:
	// lowercase, digits, and dashes.
	Name string
	// Summary is the one-liner `simctl list` prints.
	Summary string
	// Params declares the scenario's typed parameters (may be empty).
	Params []Param
	// Run executes the scenario and returns at least one named section.
	Run func(Env, Values) ([]stats.Section, error)
}

// HasParam reports whether the scenario declares the named param.
func (s Scenario) HasParam(name string) bool {
	for _, p := range s.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Parse validates raw key=value inputs against the declared params and
// returns a complete Values: every declared param is present, set from
// raw where given and from its Default otherwise. Unknown keys and
// malformed values are errors naming the scenario and the offending
// param.
func (s Scenario) Parse(raw map[string]string) (Values, error) {
	vals := make(Values, len(s.Params))
	for _, p := range s.Params {
		vals[p.Name] = p.Default
	}
	for key, text := range raw {
		if !s.HasParam(key) {
			return nil, fmt.Errorf("scenario %s: unknown param %q (declared: %s)",
				s.Name, key, strings.Join(s.paramNames(), ", "))
		}
		for _, p := range s.Params {
			if p.Name != key {
				continue
			}
			v, err := parseValue(p.Kind, text)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: param %s=%q (want %s): %w",
					s.Name, key, text, p.Kind, err)
			}
			vals[key] = v
		}
	}
	return vals, nil
}

func (s Scenario) paramNames() []string {
	names := make([]string, len(s.Params))
	for i, p := range s.Params {
		names[i] = p.Name
	}
	return names
}

// parseValue parses one raw value per kind. List kinds split on commas
// and trim whitespace; empty elements are rejected.
func parseValue(k Kind, text string) (any, error) {
	switch k {
	case String:
		return text, nil
	case Bool:
		return strconv.ParseBool(text)
	case Int:
		return strconv.Atoi(text)
	case Float:
		return strconv.ParseFloat(text, 64)
	case Duration:
		return time.ParseDuration(text)
	case Strings, Ints, Floats, Durations:
		parts := strings.Split(text, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
			if parts[i] == "" {
				return nil, fmt.Errorf("empty list element")
			}
		}
		switch k {
		case Strings:
			return parts, nil
		case Ints:
			out := make([]int, len(parts))
			for i, p := range parts {
				n, err := strconv.Atoi(p)
				if err != nil {
					return nil, err
				}
				out[i] = n
			}
			return out, nil
		case Floats:
			out := make([]float64, len(parts))
			for i, p := range parts {
				f, err := strconv.ParseFloat(p, 64)
				if err != nil {
					return nil, err
				}
				out[i] = f
			}
			return out, nil
		default:
			out := make([]time.Duration, len(parts))
			for i, p := range parts {
				d, err := time.ParseDuration(p)
				if err != nil {
					return nil, err
				}
				out[i] = d
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("unknown kind %v", k)
}

// defaultMatchesKind checks a declared Default against its Kind at
// registration time (nil is allowed only for list kinds).
func defaultMatchesKind(k Kind, def any) bool {
	switch k {
	case String:
		_, ok := def.(string)
		return ok
	case Bool:
		_, ok := def.(bool)
		return ok
	case Int:
		_, ok := def.(int)
		return ok
	case Float:
		_, ok := def.(float64)
		return ok
	case Duration:
		_, ok := def.(time.Duration)
		return ok
	case Strings:
		_, ok := def.([]string)
		return ok || def == nil
	case Ints:
		_, ok := def.([]int)
		return ok || def == nil
	case Floats:
		_, ok := def.([]float64)
		return ok || def == nil
	case Durations:
		_, ok := def.([]time.Duration)
		return ok || def == nil
	}
	return false
}

var (
	mu       sync.RWMutex
	registry = map[string]Scenario{}
	nameRE   = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)
)

// Register adds a scenario to the registry. It panics on invalid or
// duplicate registrations — both are programming errors that must fail
// the build (via any test importing the registering package), not
// surface at run time.
func Register(s Scenario) {
	if err := validate(s); err != nil {
		panic("scenario: " + err.Error())
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
}

func validate(s Scenario) error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("invalid name %q (want lowercase kebab-case)", s.Name)
	}
	if s.Summary == "" {
		return fmt.Errorf("%s: empty summary", s.Name)
	}
	if s.Run == nil {
		return fmt.Errorf("%s: nil Run", s.Name)
	}
	seen := map[string]bool{}
	for _, p := range s.Params {
		if !nameRE.MatchString(p.Name) {
			return fmt.Errorf("%s: invalid param name %q", s.Name, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("%s: duplicate param %q", s.Name, p.Name)
		}
		seen[p.Name] = true
		if !defaultMatchesKind(p.Kind, p.Default) {
			return fmt.Errorf("%s: param %q default %v does not match kind %s",
				s.Name, p.Name, p.Default, p.Kind)
		}
	}
	return nil
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// List returns every registered scenario sorted by name.
func List() []Scenario {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	list := List()
	names := make([]string, len(list))
	for i, s := range list {
		names[i] = s.Name
	}
	return names
}
