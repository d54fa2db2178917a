// Package configparity seeds config-parity violations: a Config field
// Validate never checks and an allowlisted field.
package configparity

import "fmt"

// ServeConfig drives the fixture server.
type ServeConfig struct {
	Port   int
	Window int  // want `ServeConfig.Window is not checked in Validate`
	Debug  bool //vet:ok configparity -- free toggle; both values are valid
}

// Validate checks Port but forgets Window.
func (c ServeConfig) Validate() error {
	if c.Port <= 0 {
		return fmt.Errorf("port = %d", c.Port)
	}
	return nil
}
