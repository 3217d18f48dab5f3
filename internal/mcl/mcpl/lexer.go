package mcpl

import (
	"fmt"
	"strings"
)

// Lex tokenizes MCPL source. It returns the token stream terminated by an
// EOF token, or an error with position information.
func Lex(src string) ([]Token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	// MCPL averages three to four source bytes per token.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

type lexer struct {
	src       string
	off       int
	line, col int
}

func (l *lexer) pos() Pos { return Pos{l.line, l.col} }

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || c == '@' || (c|0x20) >= 'a' && (c|0x20) <= 'z' }

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return fmt.Errorf("%v: unterminated block comment", start)
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// punctLen returns the length of the longest punctuator rest starts with,
// or 0 when it starts with none. The punctuators are the operators and
// delimiters of MCPL: ( ) { } [ ] , ; : ? . ^ ~ & |, each of + - * / % < >
// = ! alone or followed by =, and ++ -- && || << >> <<= >>=.
func punctLen(rest string) int {
	var c1 byte
	if len(rest) > 1 {
		c1 = rest[1]
	}
	switch c := rest[0]; c {
	case '(', ')', '{', '}', '[', ']', ',', ';', ':', '?', '.', '^', '~':
		return 1
	case '&', '|':
		if c1 == c {
			return 2
		}
		return 1
	case '<', '>', '+', '-':
		if c1 == c {
			if (c == '<' || c == '>') && len(rest) > 2 && rest[2] == '=' {
				return 3
			}
			return 2
		}
	case '*', '/', '%', '=', '!':
	default:
		return 0
	}
	// An operator that may take a trailing =.
	if c1 == '=' {
		return 2
	}
	return 1
}

func (l *lexer) next() (Token, error) {
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
		n := punctLen(l.src[l.off:])
		if n == 0 {
			return Token{}, fmt.Errorf("%v: unexpected character %q", start, string(c))
		}
		b := l.off
		l.off += n // no punctuator holds a newline
		l.col += n
		return Token{Kind: TokPunct, Text: l.src[b:l.off], Pos: start}, nil
	}
}

func (l *lexer) number(start Pos) (Token, error) {
	b := l.off
	isFloat := false
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.off < len(l.src) && l.peek() == '.' && l.peek2() != '.' {
		isFloat = true
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.off < len(l.src) && (l.peek() == 'e' || l.peek() == 'E') {
		save := l.off
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.off = save // 'e' belongs to a following identifier
		}
	}
	if l.off < len(l.src) && l.peek() == 'f' {
		isFloat = true
		l.advance()
	}
	text := l.src[b:l.off]
	if isFloat {
		return Token{Kind: TokFloatLit, Text: strings.TrimSuffix(text, "f"), Pos: start}, nil
	}
	return Token{Kind: TokIntLit, Text: text, Pos: start}, nil
}
