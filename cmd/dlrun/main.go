// Command dlrun executes a declarative program against CSV relations — a
// workbench for developing scheduling protocols outside the scheduler.
//
// Datalog mode: each -rel name=file.csv becomes an EDB predicate; the
// program is read from the file argument and the -query predicate printed.
// Any predicate of the program can be queried: a helper the engine unfolds
// into the rules that read it (and so does not store) is evaluated on
// demand from the program as written.
//
//	dlrun -rel request=pending.csv -rel history=hist.csv -query qualified prog.dl
//
// SQL mode (-sql): the file contains one SQL query; -rel entries become
// catalog tables.
//
//	dlrun -sql -rel requests=pending.csv -rel history=hist.csv listing1.sql
//
// Both languages are what the protocols need: neither has aggregates (no
// count<X> heads, no COUNT/SUM/MIN/MAX/AVG, GROUP BY or HAVING), and SQL has
// no LIMIT; the parsers refuse each by name.
//
// CSV files use a name:kind header, e.g. id:int,ta:int,op:string (see
// internal/relation.WriteCSV).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/datalog"
	"repro/internal/minisql"
	"repro/internal/relation"
)

type relFlags map[string]string

func (r relFlags) String() string { return fmt.Sprint(map[string]string(r)) }

func (r relFlags) Set(v string) error {
	name, file, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("-rel wants name=file.csv, got %q", v)
	}
	r[name] = file
	return nil
}

func main() {
	rels := relFlags{}
	flag.Var(rels, "rel", "relation binding name=file.csv (repeatable)")
	useSQL := flag.Bool("sql", false, "treat the program as a mini-SQL query instead of Datalog")
	query := flag.String("query", "qualified", "Datalog predicate to print: any predicate of the program, EDB or derived (an unfolded helper is evaluated on demand)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dlrun [-sql] [-rel name=file.csv ...] [-query pred] program-file")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	loaded := make(map[string]*relation.Relation, len(rels))
	for name, file := range rels {
		f, err := os.Open(file)
		if err != nil {
			log.Fatal(err)
		}
		rel, err := relation.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", file, err)
		}
		loaded[name] = rel
	}

	var out *relation.Relation
	if *useSQL {
		q, err := minisql.Parse(string(src))
		if err != nil {
			log.Fatal(err)
		}
		cat := minisql.Catalog{}
		for name, rel := range loaded {
			cat[name] = rel
		}
		out, err = minisql.Run(q, cat)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		prog, err := datalog.Parse(string(src))
		if err != nil {
			log.Fatal(err)
		}
		edb := make(map[string]*relation.Relation, len(loaded))
		for name, rel := range loaded {
			edb[name] = rel
		}
		out, err = datalog.Query(prog, edb, *query)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := out.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
