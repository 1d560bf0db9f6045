// Package rules derives association rules from mined frequent itemsets —
// the downstream analysis the paper motivates with its sales-purchase and
// medicine examples: which item combinations imply which others, and how
// strongly.
package rules

import (
	"fmt"
	"math"
	"sort"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
)

// Rule is an association rule Antecedent => Consequent with its standard
// quality measures.
type Rule struct {
	Antecedent itemset.Itemset
	Consequent itemset.Itemset
	// Support is the absolute support count of Antecedent ∪ Consequent.
	Support int
	// Confidence is sup(A ∪ C) / sup(A).
	Confidence float64
	// Lift is confidence / (sup(C)/N): how much more often A and C co-occur
	// than if independent. Lift > 1 indicates positive correlation.
	Lift float64
	// Leverage is P(A∪C) - P(A)P(C): the absolute co-occurrence surplus
	// over independence.
	Leverage float64
	// Conviction is (1 - P(C)) / (1 - confidence): how much more often the
	// rule would be wrong if A and C were independent. +Inf for exact rules.
	Conviction float64
}

// String renders the rule as "{1 2} => {3} (sup=5 conf=0.83 lift=1.25)".
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup=%d conf=%.2f lift=%.2f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// maxRuleItems bounds the itemset sizes we enumerate subsets of; 2^k
// antecedent candidates make larger sets impractical and meaningless.
const maxRuleItems = 24

// Generate derives every association rule with confidence >= minConfidence
// from the frequent itemsets in res, mined over numTransactions records.
// Rules are returned sorted by descending confidence, then descending
// support, then antecedent order, so output is deterministic.
func Generate(res *apriori.Result, minConfidence float64, numTransactions int) ([]Rule, error) {
	if minConfidence < 0 || minConfidence > 1 {
		return nil, fmt.Errorf("rules: minConfidence %v out of [0,1]", minConfidence)
	}
	if numTransactions <= 0 {
		return nil, fmt.Errorf("rules: numTransactions must be positive, got %d", numTransactions)
	}
	var out []Rule
	for k := 2; k <= res.MaxK(); k++ {
		for _, sc := range res.Frequent(k) {
			rules, err := fromItemset(res, sc, minConfidence, numTransactions)
			if err != nil {
				return nil, err
			}
			out = append(out, rules...)
		}
	}
	sortRules(out)
	return out, nil
}

// sortRules orders rules by descending confidence, then descending support,
// then antecedent and consequent order — the deterministic order Generate
// uses.
func sortRules(out []Rule) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if c := out[i].Antecedent.Compare(out[j].Antecedent); c != 0 {
			return c < 0
		}
		return out[i].Consequent.Compare(out[j].Consequent) < 0
	})
}

// fromItemset enumerates the non-empty proper subsets of sc.Set as
// antecedents and returns the rules meeting minConfidence. Every subset of
// a frequent itemset is frequent, so its support is always available in
// res; a miss means res is inconsistent.
func fromItemset(res *apriori.Result, sc apriori.SetCount, minConfidence float64,
	n int) ([]Rule, error) {
	k := sc.Set.Len()
	if k > maxRuleItems {
		return nil, fmt.Errorf("rules: %d-itemset exceeds the %d-item rule limit", k, maxRuleItems)
	}
	var out []Rule
	for mask := 1; mask < (1<<k)-1; mask++ {
		ante := make(itemset.Itemset, 0, k)
		cons := make(itemset.Itemset, 0, k)
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				ante = append(ante, sc.Set[i])
			} else {
				cons = append(cons, sc.Set[i])
			}
		}
		anteSup, ok := res.Support(ante)
		if !ok {
			return nil, fmt.Errorf("rules: result lacks subset %v of frequent %v", ante, sc.Set)
		}
		conf := float64(sc.Count) / float64(anteSup)
		if conf < minConfidence {
			continue
		}
		consSup, ok := res.Support(cons)
		if !ok {
			return nil, fmt.Errorf("rules: result lacks subset %v of frequent %v", cons, sc.Set)
		}
		pC := float64(consSup) / float64(n)
		conviction := math.Inf(1)
		if conf < 1 {
			conviction = (1 - pC) / (1 - conf)
		}
		out = append(out, Rule{
			Antecedent: ante,
			Consequent: cons,
			Support:    sc.Count,
			Confidence: conf,
			Lift:       conf / pC,
			Leverage:   float64(sc.Count)/float64(n) - (float64(anteSup)/float64(n))*pC,
			Conviction: conviction,
		})
	}
	return out, nil
}
