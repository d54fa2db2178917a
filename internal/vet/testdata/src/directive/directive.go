// Package directive exercises malformed //vet:ok suppression directives;
// the driver reports them under the pseudo-analyzer "directive".
package directive

//vet:ok lockdiscipline
var missingReason = 1

//vet:ok nosuchanalyzer -- misspelled analyzer name
var unknownAnalyzer = 2

//vet:ok configparity -- a well-formed directive is silently indexed
var wellFormed = 3
