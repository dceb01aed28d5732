//! The guest console (§3.4.2).
//!
//! "Furthermore, BM-Hive supports a VGA device for users to connect to
//! the console of the bm-guest." IO-Bond emulates the device on the
//! compute board's bus; the framebuffer lives with the bm-hypervisor,
//! which serves it to the tenant's remote console session. This module
//! implements the text-mode framebuffer and the hypervisor-side console
//! server.

use bmhive_net::MacAddr;
use std::collections::HashMap;

/// A VGA-style text-mode framebuffer (80×25 by default) with scrollback.
#[derive(Debug, Clone)]
pub struct VgaConsole {
    cols: usize,
    rows: usize,
    /// Visible cells, row-major.
    cells: Vec<u8>,
    cursor_row: usize,
    cursor_col: usize,
    /// Scrolled-off lines, oldest first (bounded).
    scrollback: Vec<String>,
    scrollback_limit: usize,
}

impl VgaConsole {
    /// Standard 80×25 text mode.
    pub fn new() -> Self {
        Self::with_geometry(80, 25)
    }

    /// Custom geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_geometry(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "console must have a visible area");
        VgaConsole {
            cols,
            rows,
            cells: vec![b' '; cols * rows],
            cursor_row: 0,
            cursor_col: 0,
            scrollback: Vec::new(),
            scrollback_limit: 1000,
        }
    }

    /// Columns of the visible area.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows of the visible area.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn row_text(&self, row: usize) -> String {
        let start = row * self.cols;
        String::from_utf8_lossy(&self.cells[start..start + self.cols])
            .trim_end()
            .to_string()
    }

    fn scroll(&mut self) {
        self.scrollback.push(self.row_text(0));
        if self.scrollback.len() > self.scrollback_limit {
            self.scrollback.remove(0);
        }
        self.cells.copy_within(self.cols.., 0);
        let last = (self.rows - 1) * self.cols;
        self.cells[last..].fill(b' ');
    }

    /// Writes guest output: printable bytes advance the cursor, `\n`
    /// breaks the line, `\r` returns the carriage; the screen scrolls
    /// at the bottom. Non-printable bytes render as `.`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            match b {
                b'\n' => {
                    self.cursor_col = 0;
                    self.cursor_row += 1;
                }
                b'\r' => self.cursor_col = 0,
                _ => {
                    let ch = if (0x20..0x7f).contains(&b) { b } else { b'.' };
                    if self.cursor_col >= self.cols {
                        self.cursor_col = 0;
                        self.cursor_row += 1;
                    }
                    if self.cursor_row >= self.rows {
                        self.scroll();
                        self.cursor_row = self.rows - 1;
                    }
                    self.cells[self.cursor_row * self.cols + self.cursor_col] = ch;
                    self.cursor_col += 1;
                }
            }
            if self.cursor_row >= self.rows {
                self.scroll();
                self.cursor_row = self.rows - 1;
            }
        }
    }

    /// The visible screen as trimmed lines.
    pub fn screen(&self) -> Vec<String> {
        (0..self.rows).map(|r| self.row_text(r)).collect()
    }

    /// Scrollback lines, oldest first.
    pub fn scrollback(&self) -> &[String] {
        &self.scrollback
    }
}

impl Default for VgaConsole {
    fn default() -> Self {
        Self::new()
    }
}

/// The bm-hypervisor's console server: one framebuffer per guest, with
/// tenant attach/detach.
#[derive(Debug, Default)]
pub struct ConsoleServer {
    consoles: HashMap<MacAddr, VgaConsole>,
    attached: HashMap<MacAddr, u32>,
}

impl ConsoleServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a guest's console at power-on.
    pub fn register(&mut self, guest: MacAddr) {
        self.consoles.entry(guest).or_default();
    }

    /// Guest-side output (forwarded by IO-Bond's VGA function).
    ///
    /// # Panics
    ///
    /// Panics if the guest was never registered (a hypervisor bug, not
    /// guest-controllable).
    pub fn guest_output(&mut self, guest: MacAddr, bytes: &[u8]) {
        self.consoles
            .get_mut(&guest)
            .expect("console registered at power-on")
            .write(bytes);
    }

    /// A tenant attaches a viewer; returns the current screen.
    pub fn attach(&mut self, guest: MacAddr) -> Option<Vec<String>> {
        let screen = self.consoles.get(&guest)?.screen();
        *self.attached.entry(guest).or_insert(0) += 1;
        Some(screen)
    }

    /// A tenant detaches.
    pub fn detach(&mut self, guest: MacAddr) {
        if let Some(count) = self.attached.get_mut(&guest) {
            *count = count.saturating_sub(1);
        }
    }

    /// Viewers currently attached to a guest's console.
    pub fn viewers(&self, guest: MacAddr) -> u32 {
        self.attached.get(&guest).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_messages_render() {
        let mut console = VgaConsole::new();
        console.write(b"SeaBIOS (version 1.11)\nBooting from virtio-blk...\n");
        let screen = console.screen();
        assert_eq!(screen[0], "SeaBIOS (version 1.11)");
        assert_eq!(screen[1], "Booting from virtio-blk...");
        assert_eq!(screen[2], "");
    }

    #[test]
    fn long_lines_wrap() {
        let mut console = VgaConsole::with_geometry(10, 3);
        console.write(b"0123456789ABCDE");
        let screen = console.screen();
        assert_eq!(screen[0], "0123456789");
        assert_eq!(screen[1], "ABCDE");
    }

    #[test]
    fn screen_scrolls_into_scrollback() {
        let mut console = VgaConsole::with_geometry(20, 2);
        console.write(b"line one\nline two\nline three\n");
        let screen = console.screen();
        assert_eq!(screen[0], "line three");
        assert_eq!(
            console.scrollback(),
            &["line one".to_string(), "line two".to_string()]
        );
    }

    #[test]
    fn carriage_return_overwrites() {
        let mut console = VgaConsole::new();
        console.write(b"loading 10%\rloading 99%");
        assert_eq!(console.screen()[0], "loading 99%");
    }

    #[test]
    fn control_bytes_are_sanitised() {
        let mut console = VgaConsole::new();
        console.write(&[0x1b, b'[', b'H', 0x07]);
        assert_eq!(console.screen()[0], ".[H.");
    }

    #[test]
    fn server_multiplexes_guests() {
        let mut server = ConsoleServer::new();
        let g1 = MacAddr::for_guest(1);
        let g2 = MacAddr::for_guest(2);
        server.register(g1);
        server.register(g2);
        server.guest_output(g1, b"tenant one kernel\n");
        server.guest_output(g2, b"tenant two kernel\n");
        assert_eq!(server.attach(g1).unwrap()[0], "tenant one kernel");
        assert_eq!(server.attach(g2).unwrap()[0], "tenant two kernel");
        assert_eq!(server.viewers(g1), 1);
        server.detach(g1);
        assert_eq!(server.viewers(g1), 0);
        // An unregistered guest has no console to attach to.
        assert!(server.attach(MacAddr::for_guest(3)).is_none());
    }

    #[test]
    fn scrollback_is_bounded() {
        let mut console = VgaConsole::with_geometry(10, 2);
        for i in 0..2_000 {
            console.write(format!("l{i}\n").as_bytes());
        }
        assert!(console.scrollback().len() <= 1_000);
    }
}
