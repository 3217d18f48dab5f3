package mcpl

import (
	"fmt"
	"strings"
)

// LexRef is lexRef for FuzzLex, which lives in package mcpl_test so that it
// can seed itself with the applications' kernels.
var LexRef = lexRef

// lexRef is Lex with punctLen's byte switch replaced by the plainest
// possible match: try each of refPuncts with strings.HasPrefix, longest
// first. It is the oracle FuzzLex holds Lex to, token for token and error
// for error.
func lexRef(src string) ([]Token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	var toks []Token
	for {
		t, err := l.nextRef()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// refPuncts is the punctuation of MCPL, multi-character first.
var refPuncts = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
	"<<", ">>", "++", "--",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
	"(", ")", "{", "}", "[", "]", ",", ";", ":", "?", ".",
}

func (l *lexer) nextRef() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.peek()
	switch {
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.number(start)
	case isLetter(c):
		b := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		text := l.src[b:l.off]
		if keywords[text] {
			return Token{Kind: TokKeyword, Text: text, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	default:
		rest := l.src[l.off:]
		for _, p := range refPuncts {
			if strings.HasPrefix(rest, p) {
				for range p {
					l.advance()
				}
				return Token{Kind: TokPunct, Text: p, Pos: start}, nil
			}
		}
		return Token{}, fmt.Errorf("%v: unexpected character %q", start, string(c))
	}
}
