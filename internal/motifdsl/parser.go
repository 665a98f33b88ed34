package motifdsl

import (
	"strconv"
	"strings"
	"time"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse lexes and parses one or more motif declarations.
func Parse(src string) ([]*Spec, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var specs []*Spec
	for p.cur().Kind != TokEOF {
		s, err := p.parseSpec()
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return nil, errf(Pos{1, 1}, "no motif declarations found")
	}
	return specs, nil
}

// ParseOne parses exactly one declaration and rejects trailing input.
func ParseOne(src string) (*Spec, error) {
	specs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(specs) != 1 {
		return nil, errf(specs[1].Pos, "expected a single motif declaration, found %d", len(specs))
	}
	return specs[0], nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k TokenKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s %q", k, t.Kind, t.Text)
	}
	return p.next(), nil
}

// expectKeyword consumes an identifier matching word (case-insensitive).
func (p *parser) expectKeyword(word string) (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent || !strings.EqualFold(t.Text, word) {
		return t, errf(t.Pos, "expected keyword %q, found %s %q", word, t.Kind, t.Text)
	}
	return p.next(), nil
}

// atKeyword reports whether the current token is the given keyword.
func (p *parser) atKeyword(word string) bool {
	t := p.cur()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, word)
}

func (p *parser) parseSpec() (*Spec, error) {
	start, err := p.expectKeyword("motif")
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokString)
	if err != nil {
		return nil, err
	}
	if name.Text == "" {
		return nil, errf(name.Pos, "motif name must be non-empty")
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	spec := &Spec{Name: name.Text, Pos: start.Pos}
	haveEmit := false
	for {
		t := p.cur()
		if t.Kind == TokRBrace {
			p.next()
			break
		}
		switch {
		case p.atKeyword("match"):
			m, err := p.parseMatch()
			if err != nil {
				return nil, err
			}
			spec.Matches = append(spec.Matches, m)
		case p.atKeyword("where"):
			w, err := p.parseWhere()
			if err != nil {
				return nil, err
			}
			spec.Wheres = append(spec.Wheres, w)
		case p.atKeyword("emit"):
			if haveEmit {
				return nil, errf(t.Pos, "duplicate emit clause")
			}
			e, err := p.parseEmit()
			if err != nil {
				return nil, err
			}
			spec.Emit = e
			haveEmit = true
		case p.atKeyword("limit"):
			l, err := p.parseLimit()
			if err != nil {
				return nil, err
			}
			spec.Limits = append(spec.Limits, l)
		case t.Kind == TokEOF:
			return nil, errf(t.Pos, "unexpected end of input inside motif %q (missing '}')", spec.Name)
		default:
			return nil, errf(t.Pos, "expected match/where/emit/limit clause, found %s %q", t.Kind, t.Text)
		}
	}
	if !haveEmit {
		return nil, errf(spec.Pos, "motif %q has no emit clause", spec.Name)
	}
	return spec, nil
}

// parseMatch parses:
//
//	match FROM -> TO ;
//	match FROM => TO [within DUR] ;
//	match FROM =[t1,t2]=> TO [within DUR] ;
func (p *parser) parseMatch() (MatchClause, error) {
	kw, err := p.expectKeyword("match")
	if err != nil {
		return MatchClause{}, err
	}
	from, err := p.expect(TokIdent)
	if err != nil {
		return MatchClause{}, err
	}
	m := MatchClause{From: from.Text, Pos: kw.Pos}
	switch t := p.cur(); t.Kind {
	case TokArrow:
		p.next()
		m.Kind = StaticHop
	case TokDynArrow:
		p.next()
		m.Kind = DynamicHop
	case TokEq:
		// =[t1,t2]=> typed dynamic arrow.
		p.next()
		if _, err := p.expect(TokLBracket); err != nil {
			return MatchClause{}, err
		}
		for {
			ty, err := p.expect(TokIdent)
			if err != nil {
				return MatchClause{}, err
			}
			m.EdgeTypes = append(m.EdgeTypes, strings.ToLower(ty.Text))
			if p.cur().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return MatchClause{}, err
		}
		if _, err := p.expect(TokDynArrow); err != nil {
			return MatchClause{}, err
		}
		m.Kind = DynamicHop
	default:
		return MatchClause{}, errf(t.Pos, "expected '->', '=>' or '=[types]=>' after %q", from.Text)
	}
	to, err := p.expect(TokIdent)
	if err != nil {
		return MatchClause{}, err
	}
	m.To = to.Text
	if p.atKeyword("within") {
		p.next()
		d, err := p.parseDuration()
		if err != nil {
			return MatchClause{}, err
		}
		if m.Kind == StaticHop {
			return MatchClause{}, errf(kw.Pos, "'within' applies only to dynamic hops")
		}
		m.Window = d
	}
	if _, err := p.expect(TokSemi); err != nil {
		return MatchClause{}, err
	}
	if m.From == m.To {
		return MatchClause{}, errf(kw.Pos, "hop endpoints must differ, got %s -> %s", m.From, m.To)
	}
	return m, nil
}

// parseWhere parses: where count ( VAR ) >= INT ;
func (p *parser) parseWhere() (WhereClause, error) {
	kw, err := p.expectKeyword("where")
	if err != nil {
		return WhereClause{}, err
	}
	if _, err := p.expectKeyword("count"); err != nil {
		return WhereClause{}, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return WhereClause{}, err
	}
	v, err := p.expect(TokIdent)
	if err != nil {
		return WhereClause{}, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return WhereClause{}, err
	}
	if _, err := p.expect(TokGE); err != nil {
		return WhereClause{}, err
	}
	n, err := p.parseInt()
	if err != nil {
		return WhereClause{}, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return WhereClause{}, err
	}
	if n < 1 {
		return WhereClause{}, errf(kw.Pos, "count threshold must be >= 1, got %d", n)
	}
	return WhereClause{Var: v.Text, Min: n, Pos: kw.Pos}, nil
}

// parseEmit parses: emit ITEM to USER [via SUPPORT] ;
func (p *parser) parseEmit() (EmitClause, error) {
	kw, err := p.expectKeyword("emit")
	if err != nil {
		return EmitClause{}, err
	}
	item, err := p.expect(TokIdent)
	if err != nil {
		return EmitClause{}, err
	}
	if _, err := p.expectKeyword("to"); err != nil {
		return EmitClause{}, err
	}
	user, err := p.expect(TokIdent)
	if err != nil {
		return EmitClause{}, err
	}
	e := EmitClause{Item: item.Text, User: user.Text, Pos: kw.Pos}
	if p.atKeyword("via") {
		p.next()
		via, err := p.expect(TokIdent)
		if err != nil {
			return EmitClause{}, err
		}
		e.Via = via.Text
	}
	if _, err := p.expect(TokSemi); err != nil {
		return EmitClause{}, err
	}
	return e, nil
}

// parseLimit parses: limit fanout INT ; | limit candidates INT ;
func (p *parser) parseLimit() (LimitClause, error) {
	kw, err := p.expectKeyword("limit")
	if err != nil {
		return LimitClause{}, err
	}
	what, err := p.expect(TokIdent)
	if err != nil {
		return LimitClause{}, err
	}
	w := strings.ToLower(what.Text)
	if w != "fanout" && w != "candidates" {
		return LimitClause{}, errf(what.Pos, "unknown limit %q (want fanout or candidates)", what.Text)
	}
	n, err := p.parseInt()
	if err != nil {
		return LimitClause{}, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return LimitClause{}, err
	}
	if n < 1 {
		return LimitClause{}, errf(kw.Pos, "limit must be >= 1, got %d", n)
	}
	return LimitClause{What: w, N: n, Pos: kw.Pos}, nil
}

func (p *parser) parseInt() (int, error) {
	t, err := p.expect(TokInt)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, errf(t.Pos, "bad integer %q: %v", t.Text, err)
	}
	return n, nil
}

func (p *parser) parseDuration() (time.Duration, error) {
	t := p.cur()
	if t.Kind != TokDuration {
		return 0, errf(t.Pos, "expected duration (e.g. 10m, 30s), found %s %q", t.Kind, t.Text)
	}
	p.next()
	d, err := time.ParseDuration(t.Text)
	if err != nil {
		return 0, errf(t.Pos, "bad duration %q: %v", t.Text, err)
	}
	if d <= 0 {
		return 0, errf(t.Pos, "duration must be positive, got %s", d)
	}
	// A plan's windows are whole milliseconds; 0 ms would reject the type.
	if d < time.Millisecond {
		return 0, errf(t.Pos, "duration %s is under a millisecond, the resolution of stream time", d)
	}
	return d, nil
}
