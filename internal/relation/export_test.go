package relation

// SymbolCount reports how many distinct strings have been interned.
func SymbolCount() int {
	if p := symbols.strs.Load(); p != nil {
		return len(*p)
	}
	return 0
}
