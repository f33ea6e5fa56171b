package chaos

import (
	"strings"
	"testing"
)

func TestParseDefaults(t *testing.T) {
	s, err := Parse("kill(place=3,iter=7)")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 {
		t.Fatalf("got %d rules", len(s))
	}
	r := s[0]
	if r.Point != PointStep || r.Kind != KindKill || r.Place != 3 || r.Iteration != 7 {
		t.Fatalf("unexpected rule %+v", r)
	}
	if r.Count != 1 || r.MaxFires != 1 || r.Prob != 0 {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

func TestParseFlakeDefaultsToReplica(t *testing.T) {
	s, err := Parse("flake(prob=0.5,times=3)")
	if err != nil {
		t.Fatal(err)
	}
	if s[0].Point != PointReplica || s[0].Kind != KindFlake || s[0].MaxFires != 3 {
		t.Fatalf("unexpected rule %+v", s[0])
	}
}

func TestParseMultiClause(t *testing.T) {
	s, err := Parse("kill(point=commit,iter=4,place=1); kill(point=restore); burst(k=2,iter=5)")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Fatalf("got %d rules", len(s))
	}
	if s[1].Point != PointRestore || s[1].Place != RandomVictim {
		t.Fatalf("rule 1: %+v", s[1])
	}
	if s[2].Count != 2 {
		t.Fatalf("rule 2: %+v", s[2])
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"",                         // empty
		"kill",                     // no parens
		"explode(place=1)",         // unknown verb
		"kill(place=0)",            // immortal victim
		"kill(point=nowhere)",      // unknown point
		"kill(prob=1.5)",           // probability out of range
		"kill(prob=0)",             // probability out of range
		"burst(k=1)",               // burst without a burst
		"flake(point=step)",        // flake off the replica point
		"kill(place=1,iter=-5)",    // bad iteration
		"kill(place=one)",          // unparsable value
		"kill(place)",              // malformed kv
		"kill(weird=1)",            // unknown key
		"kill(place=1);;explode()", // error in later clause
		"crash(point=spawn)",       // crash off the serialized points
		"crash(point=replica)",     // crash off the serialized points
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	in := "kill(point=commit,iter=4,place=1);kill(point=restore);burst(iter=5,k=2);flake(prob=0.25,times=-1)"
	s := MustParse(in)
	out := s.String()
	s2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", out, err)
	}
	if s2.String() != out {
		t.Fatalf("round trip diverged:\n first %q\nsecond %q", out, s2.String())
	}
	for _, want := range []string{"point=commit", "iter=4", "k=2", "prob=0.25", "times=-1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered schedule %q missing %q", out, want)
		}
	}
}

func TestParseSpan(t *testing.T) {
	s := MustParse("kill(iter=3,place=1,span=2)")
	if s[0].Span != 2 {
		t.Fatalf("Span = %d, want 2", s[0].Span)
	}
	got := s.String()
	if got != "kill(point=step,iter=3,place=1,span=2)" {
		t.Fatalf("String() = %q", got)
	}
	back := MustParse(got)
	if back[0] != s[0] {
		t.Fatalf("round trip changed rule: %+v vs %+v", back[0], s[0])
	}
	if _, err := Parse("flake(span=2)"); err == nil {
		t.Fatal("flake with span accepted")
	}
}

func TestParseCrash(t *testing.T) {
	const in = "crash(point=commit,iter=2,place=1)"
	s := MustParse(in)
	if r := s[0]; r.Kind != KindCrash || r.Point != PointCommit || r.Iteration != 2 || r.Place != 1 {
		t.Fatalf("unexpected rule %+v", r)
	}
	if got := s.String(); got != in {
		t.Fatalf("String() = %q, want %q", got, in)
	}
	if back := MustParse(s.String()); back[0] != s[0] {
		t.Fatalf("round trip changed rule: %+v vs %+v", back[0], s[0])
	}
	if got := MustParse("crash(iter=4,place=2)")[0].Point; got != PointStep {
		t.Fatalf("crash default point = %q, want step", got)
	}
}
