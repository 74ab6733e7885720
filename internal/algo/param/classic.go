package param

// The classic BNP algorithms that are pure points of the component
// space, registered under their paper names. These registrations are
// their only implementation: internal/algo/bnp's HLFET, MCP, ETF and
// DLS entry points run them, and its equivalence tests pin each one
// byte-identical to a reference pair-scan kernel.
func init() {
	MustRegister("HLFET", Combo{MetricSL, RuleEST, SlotNonInsertion, RegimeStatic},
		"Adam/Chandy/Dickson 1974: static levels, earliest start, no insertion")
	MustRegister("MCP", Combo{MetricALAP, RuleEST, SlotInsertion, RegimeStatic},
		"Wu/Gajski 1990: ALAP-list order, earliest start, insertion")
	MustRegister("ETF", Combo{MetricSL, RuleEST, SlotNonInsertion, RegimeDynamic},
		"Hwang/Chow/Anger/Lee 1989: globally earliest-starting ready node each step")
	MustRegister("DLS", Combo{MetricDL, RuleEST, SlotNonInsertion, RegimeDynamic},
		"Sih/Lee 1993: highest dynamic level (static level minus start) each step")
}
