package minisql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ra"
	"repro/internal/relation"
)

// hasAggregate reports whether the expression contains an aggregate call.
func hasAggregate(e Expr) bool {
	switch n := e.(type) {
	case *FuncCall:
		return true
	case *Binary:
		return hasAggregate(n.L) || hasAggregate(n.R)
	case *Not:
		return hasAggregate(n.E)
	case *IsNull:
		return hasAggregate(n.E)
	case *InList:
		return hasAggregate(n.E)
	default:
		return false
	}
}

// needsGrouping reports whether the select block takes the aggregate path.
func needsGrouping(sel *Select) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, it := range sel.Items {
		if !it.Star && hasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// exprString renders an expression canonically, for matching SELECT items
// against GROUP BY expressions.
func exprString(e Expr) string {
	switch n := e.(type) {
	case *ColRef:
		if n.Qual != "" {
			return n.Qual + "." + n.Name
		}
		return n.Name
	case *Lit:
		return n.V.Encode()
	case *Binary:
		return "(" + exprString(n.L) + " op" + strconv.Itoa(int(n.Op)) + " " + exprString(n.R) + ")"
	case *Not:
		return "NOT(" + exprString(n.E) + ")"
	case *IsNull:
		return "ISNULL(" + exprString(n.E) + "," + strconv.FormatBool(n.Negate) + ")"
	case *InList:
		parts := make([]string, len(n.Vals))
		for i, v := range n.Vals {
			parts[i] = v.Encode()
		}
		return "IN(" + exprString(n.E) + ",[" + strings.Join(parts, ",") + "]," + strconv.FormatBool(n.Negate) + ")"
	case *FuncCall:
		if n.Star {
			return n.Name + "(*)"
		}
		return n.Name + "(" + exprString(n.Arg) + ")"
	case *Exists:
		return "EXISTS(...)"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// collectAggregates gathers the distinct aggregate calls of an expression.
func collectAggregates(e Expr, seen map[string]*FuncCall, order *[]*FuncCall) {
	switch n := e.(type) {
	case *FuncCall:
		k := exprString(n)
		if _, ok := seen[k]; !ok {
			seen[k] = n
			*order = append(*order, n)
		}
	case *Binary:
		collectAggregates(n.L, seen, order)
		collectAggregates(n.R, seen, order)
	case *Not:
		collectAggregates(n.E, seen, order)
	case *IsNull:
		collectAggregates(n.E, seen, order)
	case *InList:
		collectAggregates(n.E, seen, order)
	}
}

// rewriteGrouped replaces group-by expressions and aggregate calls with
// references to the grouped relation's columns. An expression that is
// neither (and not composed of such) fails resolution later, matching SQL's
// "must appear in the GROUP BY clause or be used in an aggregate" rule.
func rewriteGrouped(e Expr, groupCols map[string]string, aggCols map[string]string) Expr {
	if name, ok := groupCols[exprString(e)]; ok {
		return &ColRef{Name: name}
	}
	if name, ok := aggCols[exprString(e)]; ok {
		return &ColRef{Name: name}
	}
	switch n := e.(type) {
	case *Binary:
		return &Binary{Op: n.Op, L: rewriteGrouped(n.L, groupCols, aggCols), R: rewriteGrouped(n.R, groupCols, aggCols)}
	case *Not:
		return &Not{E: rewriteGrouped(n.E, groupCols, aggCols)}
	case *IsNull:
		return &IsNull{E: rewriteGrouped(n.E, groupCols, aggCols), Negate: n.Negate}
	case *InList:
		return &InList{E: rewriteGrouped(n.E, groupCols, aggCols), Vals: n.Vals, Negate: n.Negate}
	default:
		return e
	}
}

// projectGrouped compiles the aggregate path: a projection materialising
// group keys and aggregate inputs, a grouping node, HAVING as a filter over
// the grouped schema, then the SELECT items as a final projection.
func (c *compiler) projectGrouped(sel *Select, in *planNode) (*planNode, error) {
	// 1. Collect aggregates from SELECT items and HAVING.
	seen := make(map[string]*FuncCall)
	var aggs []*FuncCall
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("minisql: * not allowed with GROUP BY/aggregates")
		}
		collectAggregates(it.Expr, seen, &aggs)
	}
	if sel.Having != nil {
		collectAggregates(sel.Having, seen, &aggs)
	}

	// 2. Materialise group keys and aggregate arguments.
	var mid []ra.NamedExpr
	groupCols := make(map[string]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		compiled, err := compileExpr(g, in.schema)
		if err != nil {
			return nil, err
		}
		name := "__g" + strconv.Itoa(i)
		groupCols[exprString(g)] = name
		mid = append(mid, ra.NamedExpr{Name: name, Kind: exprKind(g, in.schema), E: compiled})
	}
	aggCols := make(map[string]string, len(aggs))
	var specs []ra.AggSpec
	for i, fc := range aggs {
		name := "__a" + strconv.Itoa(i)
		aggCols[exprString(fc)] = name
		var spec ra.AggSpec
		spec.Name = name
		switch fc.Name {
		case "COUNT":
			if fc.Star {
				spec.Func = ra.CountStar
			} else {
				spec.Func = ra.Count
			}
		case "SUM":
			spec.Func = ra.Sum
		case "MIN":
			spec.Func = ra.Min
		case "MAX":
			spec.Func = ra.Max
		case "AVG":
			spec.Func = ra.Avg
		default:
			return nil, fmt.Errorf("minisql: unknown aggregate %s", fc.Name)
		}
		if !fc.Star {
			compiled, err := compileExpr(fc.Arg, in.schema)
			if err != nil {
				return nil, err
			}
			argName := "__arg" + strconv.Itoa(i)
			mid = append(mid, ra.NamedExpr{Name: argName, Kind: exprKind(fc.Arg, in.schema), E: compiled})
		}
		specs = append(specs, spec)
	}
	midCols := make([]relation.Column, len(mid))
	for i, it := range mid {
		midCols[i] = relation.Column{Name: it.Name, Kind: it.Kind}
	}
	midNode := c.add(&planNode{op: opProject, schema: relation.NewSchema(midCols...), l: in, items: mid})

	// 3. Group. Aggregate argument positions follow the group columns in the
	// mid projection; ra.GroupBy re-evaluates them by position. The grouped
	// schema mirrors ra.GroupBy's: group columns, then one column per
	// aggregate (any-kind for MIN/MAX, whose outputs carry input values).
	groupPos := make([]int, len(sel.GroupBy))
	for i := range sel.GroupBy {
		groupPos[i] = i
	}
	argPos := len(sel.GroupBy)
	groupedCols := make([]relation.Column, 0, len(groupPos)+len(specs))
	groupedCols = append(groupedCols, midCols[:len(groupPos)]...)
	for i, fc := range aggs {
		if !fc.Star {
			specs[i].E = ra.Col{Pos: argPos, Name: midCols[argPos].Name}
			argPos++
		}
		groupedCols = append(groupedCols, relation.Column{Name: specs[i].Name, Kind: ra.AggOutputKind(specs[i].Func)})
	}
	grouped := c.add(&planNode{
		op: opGroupBy, schema: relation.NewSchema(groupedCols...),
		l: midNode, groupPos: groupPos, aggs: specs,
	})

	// 4. HAVING over the grouped schema.
	if sel.Having != nil {
		rewritten := rewriteGrouped(sel.Having, groupCols, aggCols)
		if hasAggregate(rewritten) {
			return nil, fmt.Errorf("minisql: HAVING aggregate not computable: %v", exprString(sel.Having))
		}
		pred, err := compileExpr(rewritten, grouped.schema)
		if err != nil {
			return nil, fmt.Errorf("minisql: HAVING: %w", err)
		}
		grouped = c.add(&planNode{op: opSelect, schema: grouped.schema, l: grouped, preds: []ra.Expr{pred}})
	}

	// 5. Final projection.
	var items []ra.NamedExpr
	usedNames := make(map[string]int)
	uniq := func(name string) string {
		n := usedNames[name]
		usedNames[name] = n + 1
		if n == 0 {
			return name
		}
		return name + "_" + strconv.Itoa(n+1)
	}
	for _, it := range sel.Items {
		rewritten := rewriteGrouped(it.Expr, groupCols, aggCols)
		if hasAggregate(rewritten) {
			return nil, fmt.Errorf("minisql: expression %s mixes grouped and ungrouped terms", exprString(it.Expr))
		}
		compiled, err := compileExpr(rewritten, grouped.schema)
		if err != nil {
			return nil, fmt.Errorf("minisql: select item %s must be a GROUP BY expression or aggregate: %w",
				exprString(it.Expr), err)
		}
		name := it.Alias
		if name == "" {
			switch n := it.Expr.(type) {
			case *ColRef:
				name = n.Name
			case *FuncCall:
				name = strings.ToLower(n.Name)
			default:
				name = "col"
			}
		}
		items = append(items, ra.NamedExpr{Name: uniq(name), Kind: groupedKind(it.Expr, in.schema), E: compiled})
	}
	outCols := make([]relation.Column, len(items))
	for i, it := range items {
		outCols[i] = relation.Column{Name: it.Name, Kind: it.Kind}
	}
	out := c.add(&planNode{op: opProject, schema: relation.NewSchema(outCols...), l: grouped, items: items})
	if sel.Distinct {
		out = c.add(&planNode{op: opDistinct, schema: out.schema, l: out})
	}
	return out, nil
}

// groupedKind infers the output kind of a grouped select item.
func groupedKind(e Expr, base *relation.Schema) relation.Kind {
	switch n := e.(type) {
	case *FuncCall:
		if n.Name == "MIN" || n.Name == "MAX" {
			if n.Arg != nil {
				return exprKind(n.Arg, base)
			}
		}
		return relation.KindInt
	default:
		return exprKind(e, base)
	}
}
