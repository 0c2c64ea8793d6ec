package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"recache/internal/expr"
	"recache/internal/value"
)

// SelectItem is one output of the SELECT list: an aggregate over a column
// (or *), or a plain column reference.
type SelectItem struct {
	Agg  string // "", "count", "sum", "avg", "min", "max"
	Star bool   // COUNT(*)
	Col  string // dotted column name ("" when Star)
	As   string // output name (defaults derived by the planner)
}

// JoinClause is one explicit JOIN ... ON left = right.
type JoinClause struct {
	Table    string
	LeftCol  string
	RightCol string
}

// Query is the parsed AST.
type Query struct {
	Select  []SelectItem
	Tables  []string // FROM list (comma-separated tables)
	Joins   []JoinClause
	Where   expr.Expr
	GroupBy []string
}

// Parse parses one SQL statement of the supported subset.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return q, nil
}

type parser struct {
	toks  []token
	i     int
	src   string
	depth int // open NOT / parenthesis / unary-minus levels
}

// maxNesting bounds how deep NOT, parentheses and unary minus may nest. The
// parser is recursive descent and a statement arrives from the network: a
// few megabytes of "(" fit in one request frame and would otherwise end in
// a goroutine stack overflow, which is fatal to the process (no recover
// catches it).
const maxNesting = 200

// nest enters one nesting level; the caller leaves it with p.depth--.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("expression nested deeper than %d", maxNesting)
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, got %q", sym, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().kind != tokIdent {
		return "", p.errf("expected identifier, got %q", p.peek().text)
	}
	return p.next().text, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, *item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q.Tables = append(q.Tables, tbl)
	for {
		if p.acceptSymbol(",") {
			t, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q.Tables = append(q.Tables, t)
			continue
		}
		if p.acceptKeyword("JOIN") {
			t, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			l, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol("="); err != nil {
				return nil, err
			}
			r, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q.Tables = append(q.Tables, t)
			q.Joins = append(q.Joins, JoinClause{Table: t, LeftCol: l, RightCol: r})
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	return q, nil
}

var aggKeywords = map[string]string{
	"COUNT": "count", "SUM": "sum", "AVG": "avg", "MIN": "min", "MAX": "max",
}

func (p *parser) parseSelectItem() (*SelectItem, error) {
	t := p.peek()
	if t.kind == tokKeyword {
		if agg, ok := aggKeywords[t.text]; ok {
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			item := &SelectItem{Agg: agg}
			if p.acceptSymbol("*") {
				if agg != "count" {
					return nil, p.errf("%s(*) not supported", strings.ToUpper(agg))
				}
				item.Star = true
			} else {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Col = col
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			if p.acceptKeyword("AS") {
				as, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.As = as
			}
			return item, nil
		}
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Col: col}
	if p.acceptKeyword("AS") {
		as, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		item.As = as
	}
	return item, nil
}

// parseOr := parseAnd (OR parseAnd)*
func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Or(left, right)
	}
	return left, nil
}

// parseAnd := parseNot (AND parseNot)*
func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// BETWEEN consumes its own AND, so only accept AND followed by a
		// predicate (not inside an active BETWEEN: handled in parseCmp).
		if !p.acceptKeyword("AND") {
			return left, nil
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.And(left, right)
	}
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &expr.Not{E: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	if p.acceptSymbol("(") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.depth--
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt, "<=": expr.OpLe,
	">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseCmp() (expr.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return expr.Between(left, lo, hi), nil
	}
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return expr.Cmp(op, left, right), nil
		}
	}
	// A bare boolean operand (e.g. a boolean column or TRUE).
	return left, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = expr.Cmp(expr.OpAdd, left, r)
		case p.acceptSymbol("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = expr.Cmp(expr.OpSub, left, r)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			left = expr.Cmp(expr.OpMul, left, r)
		case p.acceptSymbol("/"):
			r, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			left = expr.Cmp(expr.OpDiv, left, r)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseAtom() (expr.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return expr.L(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return expr.L(n), nil
	case t.kind == tokString:
		p.next()
		return expr.L(t.text), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return expr.L(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return expr.L(false), nil
	case t.kind == tokSymbol && t.text == "-":
		p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		inner, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		p.depth--
		if l, ok := inner.(*expr.Lit); ok {
			if l.V.Kind == value.Int {
				return expr.L(-l.V.I), nil
			}
			return expr.L(-l.V.AsFloat()), nil
		}
		return expr.Cmp(expr.OpSub, expr.L(int64(0)), inner), nil
	case t.kind == tokIdent:
		p.next()
		return expr.C(t.text), nil
	}
	return nil, p.errf("expected operand, got %q", t.text)
}
