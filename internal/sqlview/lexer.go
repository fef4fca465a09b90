// Package sqlview parses a practical subset of SQL view definitions into
// algebra plans — the front end a user of idIVM writes views in:
//
//	SELECT did, pid, price
//	FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
//	WHERE category = 'phone'
//
//	SELECT did, SUM(price) AS cost
//	FROM parts, devices_parts, devices
//	WHERE parts.pid = devices_parts.pid AND devices_parts.did = devices.did
//	GROUP BY did
//
// Supported: SELECT with expressions, aliases and the aggregates
// SUM/COUNT/AVG/MIN/MAX; FROM with comma joins, NATURAL JOIN, and
// [INNER] JOIN … ON; WHERE with comparisons, AND/OR/NOT, IS [NOT] NULL;
// GROUP BY. Number and string literals, and a minus sign just before a
// number (-3 is one literal). Equality conjuncts of WHERE are attached to
// the join tree so the IVM rule engine sees real join predicates.
//
// Parse parses each statement shape once per database (shape.go): a
// statement's shape is its tokens with keywords case-folded and every
// number and string literal replaced by a typed slot. A parse builds the
// shape's template, a plan with a parameter in each slot, kept in the
// database's db.Memo; a later statement of the same shape is scanned once,
// without building tokens, and its literals are bound into a copy of the
// template that rebuilds only the nodes on the paths to them, or, by Run,
// into the parameters of the template's compiled plan. A Catalog that does
// not own a db.Memo parses every statement in full.
package sqlview

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // recognized SQL keywords, upper-cased
)

type token struct {
	kind tokenKind
	lit  litKind // a literal's type
	n    int32   // a literal's index among the statement's literals
	text string
	pos  int
}

// The keywords, packed: a text of at most 8 bytes packs into a word byte
// by byte, its ASCII letters upper-cased. No identifier holds a zero byte,
// so two identifiers pack alike only if they differ in letter case alone.
// kwWords is a table of 128 slots that holds each packed keyword in a slot
// of its own, kwSlot(word); init picks the multiplier kwMult that makes it
// so. kwNames holds each slot's keyword.
var (
	kwMult  uint64
	kwWords [128]uint64
	kwNames [128]string
)

func kwSlot(word uint64) uint64 { return word * kwMult >> 57 }

// The byte classes of the scanner. A byte is read as the Latin-1 code
// point it encodes, so a table of 256 entries answers exactly what
// unicode.IsLetter and unicode.IsDigit would. An identifier starts with a
// letter or _ (clLetter) and goes on with letters, digits, _ and dots
// (identByte).
const (
	clOther byte = iota
	clSpace
	clLetter
	clDigit
	clQuote
	clDoubleQuote
	clSymbol // a symbol of one byte, or the first of <=, >= and <>
)

var (
	class     [256]byte
	identByte [256]bool
	upper     [256]byte // ASCII letters upper-cased, every other byte as it is
)

func init() {
	for i := range class {
		c, letter, digit := byte(i), unicode.IsLetter(rune(i)), unicode.IsDigit(rune(i))
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			class[c] = clSpace
		case letter || c == '_':
			class[c] = clLetter
		case digit:
			class[c] = clDigit
		case c == '\'':
			class[c] = clQuote
		case c == '"':
			class[c] = clDoubleQuote
		case strings.IndexByte(",()=<>+-*/;", c) >= 0:
			class[c] = clSymbol
		}
		identByte[c] = letter || digit || c == '_' || c == '.'
		upper[c] = c
		if 'a' <= c && c <= 'z' {
			upper[c] = c - 'a' + 'A'
		}
	}
	kws := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND", "OR", "NOT", "JOIN",
		"NATURAL", "INNER", "ON", "IS", "NULL", "TRUE", "FALSE", "CREATE", "VIEW",
		"SUM", "COUNT", "AVG", "MIN", "MAX", "HAVING", "DISTINCT",
	}
	for kwMult = 0x9e3779b97f4a7c15; ; kwMult += 2 {
		kwWords, kwNames = [128]uint64{}, [128]string{}
		placed := 0
		for _, k := range kws {
			var w uint64
			for i := 0; i < len(k); i++ {
				w = w<<8 | uint64(k[i])
			}
			if kwWords[kwSlot(w)] != 0 {
				break // two keywords share a slot: try the next multiplier
			}
			kwWords[kwSlot(w)], kwNames[kwSlot(w)] = w, k
			placed++
		}
		if placed == len(kws) {
			return
		}
	}
}

// litKind is a literal's type, and its byte in a shape key.
type litKind byte

const (
	litInt    litKind = 'i'
	litFloat  litKind = 'f'
	litString litKind = 's'
)

// literal is a number or string literal as scan finds it: its type and
// where its text lies in the source.
type literal struct {
	kind       litKind
	escaped    bool // a string holding '' escapes
	start, end int  // the text, inside the quotes of a string
}

// text returns the literal's text, each doubled quote of a string made
// one.
func (l literal) text(src string) string {
	if l.escaped {
		return strings.ReplaceAll(src[l.start:l.end], "''", "'")
	}
	return src[l.start:l.end]
}

// scan is the one tokenizer: it reads src token by token, in one pass.
// With toks set it appends each token to *toks, which is what lex does.
// Without, it allocates nothing: it appends each token's part of the shape
// key (shape.go) to key and each literal to lits — a token's kind, and
// then its text, length-prefixed, a keyword's packed word instead, or a
// literal's litKind alone.
func scan(src string, key []byte, lits []literal, toks *[]token) ([]byte, []literal, error) {
	i := 0
	var nlit int32 // the literal tokens so far
	for {
		for i < len(src) && class[src[i]] == clSpace {
			i++
		}
		if i == len(src) {
			if toks != nil {
				*toks = append(*toks, token{kind: tokEOF, pos: i})
			}
			return key, lits, nil
		}
		pos, start := i, i // where the token starts, and its text
		end := -1          // set by the quoted tokens: their text ends before the quote
		var kind tokenKind
		var word uint64              // an identifier packed, as far as it fits
		lk, escaped := litInt, false // a literal's type; a number is an int unless it has a dot
		switch c := src[i]; class[c] {
		case clLetter:
			for ; i < len(src) && identByte[src[i]]; i++ {
				word = word<<8 | uint64(upper[src[i]])
			}
			kind = tokIdent
			if i-start <= 8 && kwWords[kwSlot(word)] == word {
				kind = tokKeyword
			}
		case clDigit:
			for i++; i < len(src) && (class[src[i]] == clDigit || src[i] == '.' && lk == litInt); i++ {
				if src[i] == '.' {
					lk = litFloat
				}
			}
			kind = tokNumber
		case clQuote:
			lk, kind, start = litString, tokString, i+1
			for i++; i < len(src) && (src[i] != '\'' || i+1 < len(src) && src[i+1] == '\''); i++ {
				if src[i] == '\'' {
					escaped = true
					i++
				}
			}
			if i == len(src) {
				return key, lits, fmt.Errorf("sqlview: unterminated string literal at %d", pos)
			}
			end, i = i, i+1
		case clDoubleQuote:
			kind, start = tokIdent, i+1
			for i++; i < len(src) && src[i] != '"'; i++ {
			}
			if i == len(src) {
				return key, lits, fmt.Errorf("sqlview: unterminated quoted identifier at %d", pos)
			}
			end, i = i, i+1
		default:
			kind = tokSymbol
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch {
			case two == "<=" || two == ">=" || two == "<>" || two == "!=":
				i += 2
			case class[c] == clSymbol:
				i++
			default:
				return key, lits, fmt.Errorf("sqlview: unexpected character %q at %d", c, i)
			}
		}
		if end < 0 {
			end = i
		}
		switch {
		case toks != nil:
			text := src[start:end]
			switch kind {
			case tokKeyword:
				text = kwNames[kwSlot(word)]
			case tokString:
				text = literal{escaped: escaped, start: start, end: end}.text(src)
			}
			*toks = append(*toks, token{kind: kind, lit: lk, n: nlit, text: text, pos: pos})
			if kind == tokNumber || kind == tokString {
				nlit++
			}
		case kind == tokNumber || kind == tokString:
			key = append(key, byte(kind), byte(lk))
			lits = append(lits, literal{kind: lk, escaped: escaped, start: start, end: end})
		case kind == tokKeyword:
			key = append(key, byte(kind))
			key = binary.LittleEndian.AppendUint64(key, word)
		default:
			key = append(key, byte(kind))
			key = binary.AppendUvarint(key, uint64(end-start))
			key = append(key, src[start:end]...)
		}
	}
}

func lex(src string) ([]token, error) {
	var toks []token
	if _, _, err := scan(src, nil, nil, &toks); err != nil {
		return nil, err
	}
	return toks, nil
}
