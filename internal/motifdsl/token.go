// Package motifdsl implements the declarative motif language the paper's
// conclusion envisions: "a generalized framework where one can
// declaratively specify a motif, which would yield an optimized query plan
// against an online graph database" (§3). A specification names the motif
// roles and hops:
//
//	motif "diamond" {
//	    match A -> B;                       // static hop, resolved in S
//	    match B =[follow]=> C within 10m;   // dynamic hop, the stream
//	    where count(B) >= 3;                // support threshold k
//	    emit C to A via B;                  // candidate shape
//	    limit fanout 64;                    // optional plan hints
//	    limit candidates 128;
//	}
//
// Compile lexes, parses, semantically checks, and plans the spec into a
// motif.PlannedProgram: the same op sequence, share key and executor
// motif.NewDiamond builds for the shape directly.
package motifdsl

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds. Keywords are matched case-insensitively.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokString   // "double-quoted"
	TokInt      // 123
	TokDuration // 10m, 250ms, 2h
	TokLBrace   // {
	TokRBrace   // }
	TokLParen   // (
	TokRParen   // )
	TokLBracket // [
	TokRBracket // ]
	TokSemi     // ;
	TokComma    // ,
	TokArrow    // ->
	TokDynArrow // => or =[types]=> (open part "=" handled by lexer)
	TokGE       // >=
	TokEq       // =
)

// String names the kind for diagnostics.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokString:
		return "string"
	case TokInt:
		return "integer"
	case TokDuration:
		return "duration"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokSemi:
		return "';'"
	case TokComma:
		return "','"
	case TokArrow:
		return "'->'"
	case TokDynArrow:
		return "'=>'"
	case TokGE:
		return "'>='"
	case TokEq:
		return "'='"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// Pos is a 1-based source position.
type Pos struct {
	Line, Col int
}

// String renders line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token with its source position and raw text.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

// Error is a positioned compilation error.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("motifdsl: %s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
