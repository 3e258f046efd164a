// Package experiments contains one harness per table and figure of the
// paper's evaluation, plus the crossover analysis of its discussion section.
// Each harness returns structured rows and has a formatter that prints the
// same table/series the paper reports; cmd/experiments regenerates all of
// them.
package experiments

import (
	"fmt"
	"strings"
)

// Approach is one row of paper Table 1: a related system and which of the
// five properties it covers (P performance, QoS, D declarativity, F
// flexibility, HS high scalability).
type Approach struct {
	Name              string
	P, QoS, D, F, HS  bool
	IsOurContribution bool
}

// Table1 returns the paper's related-approaches matrix, extended with the
// row for the declarative scheduler itself (the paper's claim: it is the
// only approach with declarativity and flexibility).
func Table1() []Approach {
	return []Approach{
		{Name: "EQMS", P: true, QoS: true},
		{Name: "Ganymed", P: true, HS: true},
		{Name: "WLMS", P: true, QoS: true},
		{Name: "C-JDBC", P: true, HS: true},
		{Name: "GP", P: true},
		{Name: "WebQoS", P: true, QoS: true, F: true},
		{Name: "QShuffler", P: true},
		{Name: "Declarative Scheduler (this repo)", P: true, QoS: true, D: true, F: true, HS: true, IsOurContribution: true},
	}
}

func mark(b bool) string {
	if b {
		return "+"
	}
	return "-"
}

// FormatTable1 renders the matrix like the paper.
func FormatTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: Related Approaches (P-Performance, QoS-Quality of Service,\n")
	b.WriteString("         D-Declarativity, F-Flexibility, HS-High Scalability)\n\n")
	fmt.Fprintf(&b, "%-36s %2s %3s %2s %2s %2s\n", "Approach", "P", "QoS", "D", "F", "HS")
	for _, a := range Table1() {
		fmt.Fprintf(&b, "%-36s %2s %3s %2s %2s %2s\n",
			a.Name, mark(a.P), mark(a.QoS), mark(a.D), mark(a.F), mark(a.HS))
	}
	return b.String()
}

// FormatTable2 renders the request/history/rte schema of paper Table 2.
func FormatTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: Attributes of requests, history and rte table\n\n")
	rows := [][2]string{
		{"ID", "Consecutive request number"},
		{"TA", "Transaction number"},
		{"INTRATA", "Request number within a transaction"},
		{"Operation", "Operation type (read/write/abort/commit)"},
		{"Object", "Object number"},
	}
	fmt.Fprintf(&b, "%-10s %s\n", "Attribute", "Description")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %s\n", r[0], r[1])
	}
	return b.String()
}
