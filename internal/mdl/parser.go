package mdl

import (
	"fmt"
	"strconv"
	"strings"

	"pperf/internal/probe"
)

// Parse turns MDL source into a File.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src, false)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for !p.at(tokEOF) {
		switch {
		case p.atIdent("resourceList"):
			d, err := p.resourceList()
			if err != nil {
				return nil, err
			}
			f.ResourceLists = append(f.ResourceLists, d)
		case p.atIdent("constraint"):
			d, err := p.constraint()
			if err != nil {
				return nil, err
			}
			f.Constraints = append(f.Constraints, d)
		case p.atIdent("metric"):
			d, err := p.metric()
			if err != nil {
				return nil, err
			}
			f.Metrics = append(f.Metrics, d)
		default:
			return nil, p.errf("expected resourceList, constraint, or metric, got %q", p.cur().text)
		}
	}
	return f, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }
func (p *parser) atIdent(s string) bool {
	return p.cur().kind == tokIdent && p.cur().text == s
}
func (p *parser) advance() token { t := p.cur(); p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("mdl:%d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %s, got %q", what, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) expectIdent(s string) error {
	if !p.atIdent(s) {
		return p.errf("expected %q, got %q", s, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent, "identifier")
	return t.text, err
}

// resourceList := "resourceList" id "is" kind "{" str ("," str)* "}"
//
//	["flavor" "{" id ("," id)* "}"] ";"
func (p *parser) resourceList() (*ResourceListDecl, error) {
	line := p.cur().line
	p.advance() // resourceList
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("is"); err != nil {
		return nil, err
	}
	kind, err := p.ident()
	if err != nil {
		return nil, err
	}
	if kind != "procedure" {
		return nil, p.errf("unsupported resourceList kind %q", kind)
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	d := &ResourceListDecl{Name: name, Kind: kind, Line: line}
	for !p.at(tokRBrace) {
		t, err := p.expect(tokString, "string")
		if err != nil {
			return nil, err
		}
		d.Items = append(d.Items, t.text)
		if p.at(tokComma) {
			p.advance()
		}
	}
	p.advance() // }
	if p.atIdent("flavor") {
		fl, err := p.flavor()
		if err != nil {
			return nil, err
		}
		d.Flavor = fl
	}
	if _, err := p.expect(tokSemi, ";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) flavor() ([]string, error) {
	p.advance() // flavor
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	var out []string
	for !p.at(tokRBrace) {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.at(tokComma) {
			p.advance()
		}
	}
	p.advance()
	return out, nil
}

// constraint := "constraint" id path "is" "counter" "{" foreach* "}"
func (p *parser) constraint() (*ConstraintDecl, error) {
	line := p.cur().line
	p.advance()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	pt, err := p.expect(tokPath, "resource path")
	if err != nil {
		return nil, err
	}
	d := &ConstraintDecl{Name: name, Path: pt.text, Line: line}
	if strings.HasSuffix(d.Path, "/*") {
		d.Path = strings.TrimSuffix(d.Path, "/*")
		d.Deep = true
	}
	if err := p.expectIdent("is"); err != nil {
		return nil, err
	}
	if err := p.expectIdent("counter"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	for !p.at(tokRBrace) {
		fe, err := p.foreach()
		if err != nil {
			return nil, err
		}
		d.Foreachs = append(d.Foreachs, fe)
	}
	p.advance()
	return d, nil
}

// metric := "metric" id "{" attr* base "}"
func (p *parser) metric() (*MetricDecl, error) {
	line := p.cur().line
	p.advance()
	id, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	d := &MetricDecl{ID: id, Line: line}
	// The four scalar attributes share one shape: attr ident ";".
	scalars := map[string]*string{
		"units": &d.Units, "unitstype": &d.UnitsType, "style": &d.Style,
		"aggregateOperator": &d.AggOp, "aggregateoperator": &d.AggOp,
	}
	for !p.at(tokRBrace) {
		switch {
		case p.atIdent("name"):
			p.advance()
			t, err := p.expect(tokString, "string")
			if err != nil {
				return nil, err
			}
			d.DisplayName = t.text
			if _, err := p.expect(tokSemi, ";"); err != nil {
				return nil, err
			}
		case p.at(tokIdent) && scalars[p.cur().text] != nil:
			dst := scalars[p.advance().text]
			v, err := p.ident()
			if err != nil {
				return nil, err
			}
			*dst = v
			if _, err := p.expect(tokSemi, ";"); err != nil {
				return nil, err
			}
		case p.atIdent("flavor"):
			fl, err := p.flavor()
			if err != nil {
				return nil, err
			}
			d.Flavor = fl
			if _, err := p.expect(tokSemi, ";"); err != nil {
				return nil, err
			}
		case p.atIdent("constraint"):
			p.advance()
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			d.Constraints = append(d.Constraints, c)
			if _, err := p.expect(tokSemi, ";"); err != nil {
				return nil, err
			}
		case p.atIdent("counter"):
			p.advance()
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			d.Counters = append(d.Counters, c)
			if _, err := p.expect(tokSemi, ";"); err != nil {
				return nil, err
			}
		case p.atIdent("base"):
			p.advance()
			if err := p.expectIdent("is"); err != nil {
				return nil, err
			}
			kind, err := p.ident()
			if err != nil {
				return nil, err
			}
			d.BaseKind = kind
			if _, err := p.expect(tokLBrace, "{"); err != nil {
				return nil, err
			}
			for !p.at(tokRBrace) {
				fe, err := p.foreach()
				if err != nil {
					return nil, err
				}
				d.Foreachs = append(d.Foreachs, fe)
			}
			p.advance() // }
		default:
			return nil, p.errf("unexpected %q in metric body", p.cur().text)
		}
	}
	p.advance() // }
	if d.BaseKind == "" {
		return nil, fmt.Errorf("mdl:%d: metric %s has no base", line, id)
	}
	return d, nil
}

// foreach := "foreach" "func" "in" set "{" probeSpec* "}"
func (p *parser) foreach() (*Foreach, error) {
	line := p.cur().line
	if err := p.expectIdent("foreach"); err != nil {
		return nil, err
	}
	if err := p.expectIdent("func"); err != nil {
		return nil, err
	}
	if err := p.expectIdent("in"); err != nil {
		return nil, err
	}
	set, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	fe := &Foreach{SetName: set, Line: line}
	for !p.at(tokRBrace) {
		ps, err := p.probeSpec()
		if err != nil {
			return nil, err
		}
		fe.Probes = append(fe.Probes, ps)
	}
	p.advance()
	return fe, nil
}

// probeSpec := ("append"|"prepend") "preinsn" "func" "." ("entry"|"return")
//
//	["constrained"] snippet
func (p *parser) probeSpec() (*ProbeSpec, error) {
	line := p.cur().line
	ps := &ProbeSpec{Line: line}
	switch {
	case p.atIdent("append"):
		ps.Order = probe.Append
	case p.atIdent("prepend"):
		ps.Order = probe.Prepend
	default:
		return nil, p.errf("expected append or prepend, got %q", p.cur().text)
	}
	p.advance()
	if err := p.expectIdent("preinsn"); err != nil {
		return nil, err
	}
	if err := p.expectIdent("func"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDot, "."); err != nil {
		return nil, err
	}
	switch {
	case p.atIdent("entry"):
		ps.Where = probe.Entry
	case p.atIdent("return"):
		ps.Where = probe.Return
	default:
		return nil, p.errf("expected entry or return, got %q", p.cur().text)
	}
	p.advance()
	if p.atIdent("constrained") {
		ps.Constrained = true
		p.advance()
	}
	sn, err := p.expect(tokSnippet, "(* ... *) block")
	if err != nil {
		return nil, err
	}
	stmts, err := parseSnippet(sn.text, sn.line)
	if err != nil {
		return nil, err
	}
	ps.Stmts = stmts
	return ps, nil
}

// --- snippet (statement) parsing ------------------------------------------

func parseSnippet(src string, line int) ([]Stmt, error) {
	toks, err := lexAll(src, true)
	if err != nil {
		return nil, err
	}
	sp := &parser{toks: toks}
	var stmts []Stmt
	for !sp.at(tokEOF) {
		s, err := sp.stmt()
		if err != nil {
			return nil, fmt.Errorf("%w (in snippet starting line %d)", err, line)
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) stmt() (Stmt, error) {
	if p.atIdent("if") {
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &IfStmt{Cond: cond, Then: then}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch p.cur().kind {
	case tokPlusPlus:
		p.advance()
		if _, err := p.expect(tokSemi, ";"); err != nil {
			return nil, err
		}
		return &IncStmt{Var: name}, nil
	case tokPlusEq:
		p.advance()
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, ";"); err != nil {
			return nil, err
		}
		return &AddAssignStmt{Var: name, Val: v}, nil
	case tokAssign:
		p.advance()
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, ";"); err != nil {
			return nil, err
		}
		return &AssignStmt{Var: name, Val: v}, nil
	case tokLParen:
		p.advance()
		cs := &CallStmt{Fn: name}
		for !p.at(tokRParen) {
			if p.at(tokAmp) {
				p.advance()
				out, err := p.ident()
				if err != nil {
					return nil, err
				}
				cs.Out = out
			} else {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				cs.Args = append(cs.Args, a)
			}
			if p.at(tokComma) {
				p.advance()
			}
		}
		p.advance() // )
		if _, err := p.expect(tokSemi, ";"); err != nil {
			return nil, err
		}
		return cs, nil
	default:
		return nil, p.errf("expected statement after %q", name)
	}
}

// expr := cmp ( ("=="|"!="|">="|"<="|">"|"<") cmp )?
func (p *parser) expr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	switch p.cur().kind {
	case tokEq, tokNe, tokGe, tokLe, tokGt, tokLt:
		op := p.advance().text
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

// addExpr := mulExpr ( "+" mulExpr )*
func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) {
		p.advance()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "+", L: l, R: r}
	}
	return l, nil
}

// mulExpr := primary ( "*" primary )*
func (p *parser) mulExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at(tokStar) {
		p.advance()
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "*", L: l, R: r}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	switch p.cur().kind {
	case tokNumber:
		t := p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("mdl:%d: bad number %q", t.line, t.text)
		}
		return &NumExpr{V: v}, nil
	case tokString:
		return &StrExpr{V: p.advance().text}, nil
	case tokDollar:
		p.advance()
		kind, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLBracket, "["); err != nil {
			return nil, err
		}
		idx, err := p.expect(tokNumber, "index")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(idx.text)
		if err != nil {
			return nil, fmt.Errorf("mdl:%d: bad index %q", idx.line, idx.text)
		}
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return nil, err
		}
		switch kind {
		case "arg":
			return &ArgExpr{Index: n}, nil
		case "constraint":
			return &ConstraintExpr{Index: n}, nil
		default:
			return nil, p.errf("unknown $%s", kind)
		}
	case tokLParen:
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		name := p.advance().text
		if p.at(tokLParen) {
			p.advance()
			ce := &CallExpr{Fn: name}
			for !p.at(tokRParen) {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				ce.Args = append(ce.Args, a)
				if p.at(tokComma) {
					p.advance()
				}
			}
			p.advance()
			return ce, nil
		}
		return &VarExpr{Name: name}, nil
	default:
		return nil, p.errf("unexpected %q in expression", p.cur().text)
	}
}
