package fault

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the grammar. Parse never panics; an
// accepted spec's String re-parses to the same String, which exactly the
// entry point of its hook set takes (Flags.Build for World classes, a
// Only(Serving) check for Serving ones, as kcserved does; a spec mixing
// the two suits neither); and a refusal names the class it is about —
// every parameter error does so through its class — or, for text with no
// clause at all, says so. The committed corpus under
// testdata/fuzz/FuzzParse covers every class, both hook sets and the
// refusals of TestParseRejects.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			var names []string
			for _, clause := range strings.Split(s, ";") {
				if clause = strings.TrimSpace(clause); clause != "" {
					name, _, _ := strings.Cut(clause, ":")
					names = append(names, strings.TrimSpace(name))
				}
			}
			msg := err.Error()
			if len(names) == 0 {
				if !strings.Contains(msg, "no class clause") {
					t.Fatalf("Parse(%q) = %v, want it to say there is no clause", s, err)
				}
				return
			}
			for _, n := range names {
				if strings.Contains(msg, n) || strings.Contains(msg, strconv.Quote(n)) {
					return
				}
			}
			t.Fatalf("Parse(%q) = %v, which names none of its classes %q", s, err, names)
		}
		if spec.Empty() {
			if strings.TrimSpace(s) != "" {
				t.Fatalf("Parse(%q) accepted text with no class", s)
			}
			return
		}
		canon := spec.String()
		re, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", s, canon, err)
		}
		if got := re.String(); got != canon {
			t.Fatalf("canonical form drifted: %q re-parses to %q", canon, got)
		}
		var world, serving bool
		for _, c := range classes {
			if c.get(&spec) != nil {
				world = world || c.hooks == World
				serving = serving || c.hooks == Serving
			}
		}
		_, err = (&Flags{Spec: canon}).Build()
		if (err == nil) != !serving {
			t.Fatalf("Flags.Build(%q) = %v with World classes %v, Serving classes %v", canon, err, world, serving)
		}
		if err := re.Only(Serving); (err == nil) != !world {
			t.Fatalf("Only(Serving) of %q = %v with World classes %v, Serving classes %v", canon, err, world, serving)
		}
	})
}
