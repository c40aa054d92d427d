package mdl

import (
	"fmt"
	"strconv"
	"strings"

	"pperf/internal/mpi"
	"pperf/internal/probe"
)

// Parse turns MDL or PCL source into a File.
func Parse(src string) (f *File, err error) {
	defer catch(&err)
	toks, err := lexAll(src, false)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f = &File{Source: src}
	p.decls(f, tokEOF)
	return f, nil
}

// decls parses declarations into f up to the end token:
//
//	decl := resourceList | constraint | metric | daemon | process
//	      | "tunable_constant" "{" (str number ";")* "}" | "mdl" "{" decl* "}"
func (p *parser) decls(f *File, end tokKind) {
	for !p.at(end) {
		switch {
		case p.atIdent("resourceList"):
			f.ResourceLists = append(f.ResourceLists, p.resourceList())
		case p.atIdent("constraint"):
			f.Constraints = append(f.Constraints, p.constraint())
		case p.atIdent("metric"):
			f.Metrics = append(f.Metrics, p.metric())
		case p.atIdent("daemon"):
			d := p.daemon()
			if f.Daemon(d.Name) != nil {
				p.failAt(d.Line, "duplicate daemon %q", d.Name)
			}
			f.Daemons = append(f.Daemons, d)
		case p.atIdent("process"):
			f.Processes = append(f.Processes, p.process())
		case p.atIdent("tunable_constant"):
			p.advance()
			p.expect(tokLBrace, "{")
			for !p.at(tokRBrace) {
				name := p.expect(tokString, "tunable name")
				f.Tunables = append(f.Tunables, &TunableDecl{Name: name.text, Value: p.number(), Line: name.line})
				p.expect(tokSemi, ";")
			}
			p.advance()
		case p.atIdent("mdl"):
			p.advance()
			p.expect(tokLBrace, "{")
			p.decls(f, tokRBrace)
			p.advance()
		case p.at(tokEOF):
			p.failf("unterminated mdl block")
		default:
			p.failf("unknown declaration %q", p.cur().text)
		}
	}
}

// attrs parses a PCL block body, `{ (id value ";")* }`, handing each
// attribute to set, which reads its value.
func (p *parser) attrs(set func(attr token)) {
	p.expect(tokLBrace, "{")
	for !p.at(tokRBrace) {
		set(p.expect(tokIdent, "attribute"))
		p.expect(tokSemi, ";")
	}
	p.advance()
}

// daemon := "daemon" id "{" (("command" str | "flavor" id | "mpi_implementation" str) ";")* "}"
func (p *parser) daemon() *DaemonDecl {
	d := &DaemonDecl{Line: p.advance().line}
	d.Name = p.ident()
	p.attrs(func(attr token) {
		switch attr.text {
		case "command":
			d.Command = p.expect(tokString, "string").text
		case "flavor":
			d.Flavor = p.ident()
		case "mpi_implementation":
			kind, err := mpi.ParseImpl(p.expect(tokString, "string").text)
			if err != nil {
				p.failAt(attr.line, "daemon %s: %v", d.Name, err)
			}
			d.Impl, d.HasImpl = kind, true
		default:
			p.failAt(attr.line, "unknown daemon attribute %q", attr.text)
		}
	})
	return d
}

// process := "process" id "{" (("command" str | "daemon" id) ";")* "}"
func (p *parser) process() *ProcessDecl {
	pr := &ProcessDecl{Line: p.advance().line}
	pr.Name = p.ident()
	p.attrs(func(attr token) {
		switch attr.text {
		case "command":
			pr.Command = p.expect(tokString, "string").text
		case "daemon":
			pr.Daemon = p.ident()
		default:
			p.failAt(attr.line, "unknown process attribute %q", attr.text)
		}
	})
	return pr
}

type parser struct {
	toks []token
	pos  int
	// snippetAt is the line the (* ... *) block being parsed starts on (0
	// outside one): token lines inside a block count from the block's start.
	snippetAt int
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }
func (p *parser) atIdent(s string) bool {
	return p.cur().kind == tokIdent && p.cur().text == s
}
func (p *parser) advance() token { t := p.cur(); p.pos++; return t }

// abort carries an error up out of the parser's, or the snippet compiler's,
// recursive descent; catch, deferred at the package's entry points, turns it
// back into the returned error.
type abort struct{ err error }

func catch(err *error) {
	switch r := recover().(type) {
	case nil:
	case abort:
		*err = r.err
	default:
		panic(r)
	}
}

// failAt aborts the parse with an error at the given line; failf, at the
// current token's.
func (p *parser) failAt(line int, format string, args ...any) {
	err := fmt.Errorf("mdl:%d: %s", line, fmt.Sprintf(format, args...))
	if p.snippetAt > 0 {
		err = fmt.Errorf("%w (in snippet starting line %d)", err, p.snippetAt)
	}
	panic(abort{err})
}

func (p *parser) failf(format string, args ...any) { p.failAt(p.cur().line, format, args...) }

func (p *parser) expect(k tokKind, what string) token {
	if !p.at(k) {
		p.failf("expected %s, got %q", what, p.cur().text)
	}
	return p.advance()
}

func (p *parser) expectIdent(s string) {
	if !p.atIdent(s) {
		p.failf("expected %q, got %q", s, p.cur().text)
	}
	p.advance()
}

func (p *parser) ident() string { return p.expect(tokIdent, "identifier").text }

func (p *parser) number() float64 {
	t := p.expect(tokNumber, "number")
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		p.failAt(t.line, "bad number %q", t.text)
	}
	return v
}

// resourceList := "resourceList" id "is" kind "{" str ("," str)* "}"
//
//	["flavor" "{" id ("," id)* "}"] ";"
func (p *parser) resourceList() *ResourceListDecl {
	line := p.cur().line
	p.advance() // resourceList
	name := p.ident()
	p.expectIdent("is")
	kind := p.ident()
	if kind != "procedure" {
		p.failf("unsupported resourceList kind %q", kind)
	}
	p.expect(tokLBrace, "{")
	d := &ResourceListDecl{Name: name, Kind: kind, Line: line}
	for !p.at(tokRBrace) {
		d.Items = append(d.Items, p.expect(tokString, "string").text)
		if p.at(tokComma) {
			p.advance()
		}
	}
	p.advance() // }
	if p.atIdent("flavor") {
		d.Flavor = p.flavor()
	}
	p.expect(tokSemi, ";")
	return d
}

func (p *parser) flavor() []string {
	p.advance() // flavor
	p.expect(tokLBrace, "{")
	var out []string
	for !p.at(tokRBrace) {
		out = append(out, p.ident())
		if p.at(tokComma) {
			p.advance()
		}
	}
	p.advance()
	return out
}

// constraint := "constraint" id path "is" "counter" "{" foreach* "}"
func (p *parser) constraint() *ConstraintDecl {
	line := p.cur().line
	p.advance()
	name := p.ident()
	pt := p.expect(tokPath, "resource path")
	d := &ConstraintDecl{Name: name, Path: pt.text, Line: line}
	if strings.HasSuffix(d.Path, "/*") {
		d.Path = strings.TrimSuffix(d.Path, "/*")
		d.Deep = true
	}
	p.expectIdent("is")
	p.expectIdent("counter")
	p.expect(tokLBrace, "{")
	for !p.at(tokRBrace) {
		d.Foreachs = append(d.Foreachs, p.foreach())
	}
	p.advance()
	return d
}

// metric := "metric" id "{" attr* base "}"
func (p *parser) metric() *MetricDecl {
	line := p.cur().line
	p.advance()
	id := p.ident()
	p.expect(tokLBrace, "{")
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
			d.DisplayName = p.expect(tokString, "string").text
			p.expect(tokSemi, ";")
		case p.at(tokIdent) && scalars[p.cur().text] != nil:
			dst := scalars[p.advance().text]
			*dst = p.ident()
			p.expect(tokSemi, ";")
		case p.atIdent("flavor"):
			d.Flavor = p.flavor()
			p.expect(tokSemi, ";")
		case p.atIdent("constraint"):
			p.advance()
			d.Constraints = append(d.Constraints, p.ident())
			p.expect(tokSemi, ";")
		case p.atIdent("counter"):
			p.advance()
			d.Counters = append(d.Counters, p.ident())
			p.expect(tokSemi, ";")
		case p.atIdent("base"):
			p.advance()
			p.expectIdent("is")
			d.BaseKind = p.ident()
			p.expect(tokLBrace, "{")
			for !p.at(tokRBrace) {
				d.Foreachs = append(d.Foreachs, p.foreach())
			}
			p.advance() // }
		default:
			p.failf("unexpected %q in metric body", p.cur().text)
		}
	}
	p.advance() // }
	if d.BaseKind == "" {
		p.failAt(line, "metric %s has no base", id)
	}
	return d
}

// foreach := "foreach" "func" "in" set "{" probeSpec* "}"
func (p *parser) foreach() *Foreach {
	line := p.cur().line
	p.expectIdent("foreach")
	p.expectIdent("func")
	p.expectIdent("in")
	set := p.ident()
	p.expect(tokLBrace, "{")
	fe := &Foreach{SetName: set, Line: line}
	for !p.at(tokRBrace) {
		fe.Probes = append(fe.Probes, p.probeSpec())
	}
	p.advance()
	return fe
}

// probeSpec := ("append"|"prepend") "preinsn" "func" "." ("entry"|"return")
//
//	["constrained"] snippet
func (p *parser) probeSpec() *ProbeSpec {
	line := p.cur().line
	ps := &ProbeSpec{Line: line}
	switch {
	case p.atIdent("append"):
		ps.Order = probe.Append
	case p.atIdent("prepend"):
		ps.Order = probe.Prepend
	default:
		p.failf("expected append or prepend, got %q", p.cur().text)
	}
	p.advance()
	p.expectIdent("preinsn")
	p.expectIdent("func")
	p.expect(tokDot, ".")
	switch {
	case p.atIdent("entry"):
		ps.Where = probe.Entry
	case p.atIdent("return"):
		ps.Where = probe.Return
	default:
		p.failf("expected entry or return, got %q", p.cur().text)
	}
	p.advance()
	if p.atIdent("constrained") {
		ps.Constrained = true
		p.advance()
	}
	sn := p.expect(tokSnippet, "(* ... *) block")
	toks, err := lexAll(sn.text, true)
	if err != nil {
		panic(abort{err})
	}
	sp := &parser{toks: toks, snippetAt: sn.line}
	for !sp.at(tokEOF) {
		ps.Stmts = append(ps.Stmts, sp.stmt())
	}
	return ps
}

// --- snippet (statement) parsing ------------------------------------------

func (p *parser) stmt() Stmt {
	if p.atIdent("if") {
		p.advance()
		p.expect(tokLParen, "(")
		cond := p.expr()
		p.expect(tokRParen, ")")
		then := p.stmt()
		return &IfStmt{Cond: cond, Then: then}
	}
	name := p.ident()
	switch p.cur().kind {
	case tokPlusPlus:
		p.advance()
		p.expect(tokSemi, ";")
		return &IncStmt{Var: name}
	case tokPlusEq:
		p.advance()
		v := p.expr()
		p.expect(tokSemi, ";")
		return &AddAssignStmt{Var: name, Val: v}
	case tokAssign:
		p.advance()
		v := p.expr()
		p.expect(tokSemi, ";")
		return &AssignStmt{Var: name, Val: v}
	case tokLParen:
		p.advance()
		cs := &CallStmt{Fn: name}
		for !p.at(tokRParen) {
			if p.at(tokAmp) {
				p.advance()
				cs.Out = p.ident()
			} else {
				cs.Args = append(cs.Args, p.expr())
			}
			if p.at(tokComma) {
				p.advance()
			}
		}
		p.advance() // )
		p.expect(tokSemi, ";")
		return cs
	}
	p.failf("expected statement after %q", name)
	return nil
}

// expr := cmp ( ("=="|"!="|">="|"<="|">"|"<") cmp )?
func (p *parser) expr() Expr {
	l := p.addExpr()
	switch p.cur().kind {
	case tokEq, tokNe, tokGe, tokLe, tokGt, tokLt:
		op := p.advance().text
		r := p.addExpr()
		return &BinExpr{Op: op, L: l, R: r}
	}
	return l
}

// addExpr := mulExpr ( "+" mulExpr )*
func (p *parser) addExpr() Expr {
	l := p.mulExpr()
	for p.at(tokPlus) {
		p.advance()
		r := p.mulExpr()
		l = &BinExpr{Op: "+", L: l, R: r}
	}
	return l
}

// mulExpr := primary ( "*" primary )*
func (p *parser) mulExpr() Expr {
	l := p.primary()
	for p.at(tokStar) {
		p.advance()
		r := p.primary()
		l = &BinExpr{Op: "*", L: l, R: r}
	}
	return l
}

func (p *parser) primary() Expr {
	switch p.cur().kind {
	case tokNumber:
		return &NumExpr{V: p.number()}
	case tokString:
		return &StrExpr{V: p.advance().text}
	case tokDollar:
		p.advance()
		kind := p.ident()
		p.expect(tokLBracket, "[")
		idx := p.expect(tokNumber, "index")
		n, err := strconv.Atoi(idx.text)
		if err != nil {
			p.failAt(idx.line, "bad index %q", idx.text)
		}
		p.expect(tokRBracket, "]")
		switch kind {
		case "arg":
			return &ArgExpr{Index: n}
		case "constraint":
			return &ConstraintExpr{Index: n}
		}
		p.failf("unknown $%s", kind)
	case tokLParen:
		p.advance()
		e := p.expr()
		p.expect(tokRParen, ")")
		return e
	case tokIdent:
		name := p.advance().text
		if p.at(tokLParen) {
			p.advance()
			ce := &CallExpr{Fn: name}
			for !p.at(tokRParen) {
				ce.Args = append(ce.Args, p.expr())
				if p.at(tokComma) {
					p.advance()
				}
			}
			p.advance()
			return ce
		}
		return &VarExpr{Name: name}
	}
	p.failf("unexpected %q in expression", p.cur().text)
	return nil
}
