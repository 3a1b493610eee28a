package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Ctxfirst, Lockorder, Obsnames, Wrapeof}
}

// Select resolves -enable/-disable analyzer lists against the full suite.
// Empty enable means "all". Unknown names are an error (a typo'd analyzer
// name must not silently disable a gate).
func Select(enable, disable string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		set := map[string]bool{}
		if strings.TrimSpace(list) == "" {
			return set, nil
		}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := byName[name]; !ok {
				known := make([]string, 0, len(byName))
				for n := range byName {
					known = append(known, n)
				}
				sort.Strings(known)
				return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	enabled, err := parse(enable)
	if err != nil {
		return nil, err
	}
	disabled, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All() {
		if len(enabled) > 0 && !enabled[a.Name] {
			continue
		}
		if disabled[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}
