//! The FrameQL lexer.

#![expect(
    clippy::indexing_slicing,
    reason = "single-pass byte scanner: every index is guarded by an explicit bound check against \
              bytes.len()"
)]

use crate::{FrameQlError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A keyword or identifier (keywords are recognized case-insensitively by the
    /// parser; the lexer preserves the original spelling).
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// A single-quoted string literal.
    StringLit(String),
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `!=` or `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `%`
    Percent,
    /// `;`
    Semicolon,
}

impl Token {
    /// If the token is an identifier, returns it upper-cased (for keyword matching).
    pub fn as_keyword(&self) -> Option<String> {
        match self {
            Token::Ident(s) => Some(s.to_ascii_uppercase()),
            _ => None,
        }
    }
}

/// Lexes a FrameQL query string into tokens.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Ok(tokenize_spanned(input)?.into_iter().map(|(token, _)| token).collect())
}

/// Lexes a FrameQL query string into `(token, byte position)` pairs.
///
/// The position is the byte offset of the token's first character in `input`; the
/// parser uses it to render caret-annotated error messages.
pub fn tokenize_spanned(input: &str) -> Result<Vec<(Token, usize)>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '*' => {
                tokens.push((Token::Star, i));
                i += 1;
            }
            '(' => {
                tokens.push((Token::LParen, i));
                i += 1;
            }
            ')' => {
                tokens.push((Token::RParen, i));
                i += 1;
            }
            ',' => {
                tokens.push((Token::Comma, i));
                i += 1;
            }
            '%' => {
                tokens.push((Token::Percent, i));
                i += 1;
            }
            ';' => {
                tokens.push((Token::Semicolon, i));
                i += 1;
            }
            '=' => {
                tokens.push((Token::Eq, i));
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push((Token::NotEq, i));
                    i += 2;
                } else {
                    return Err(FrameQlError::LexError {
                        position: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push((Token::LtEq, i));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] as char == '>' {
                    tokens.push((Token::NotEq, i));
                    i += 2;
                } else {
                    tokens.push((Token::Lt, i));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push((Token::GtEq, i));
                    i += 2;
                } else {
                    tokens.push((Token::Gt, i));
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != '\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(FrameQlError::LexError {
                        position: i,
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push((Token::StringLit(input[start..j].to_string()), i));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut j = i;
                let mut seen_dot = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.' && !seen_dot {
                        seen_dot = true;
                        j += 1;
                    } else {
                        break;
                    }
                }
                if j < bytes.len() && bytes[j] as char == '.' {
                    return Err(FrameQlError::LexError {
                        position: start,
                        message: "invalid number literal (multiple decimal points)".into(),
                    });
                }
                let text = &input[start..j];
                let value: f64 = text.parse().map_err(|_| FrameQlError::LexError {
                    position: start,
                    message: format!("invalid number literal '{text}'"),
                })?;
                tokens.push((Token::Number(value), start));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '-' || d == '.' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                tokens.push((Token::Ident(input[start..j].to_string()), start));
                i = j;
            }
            other => {
                return Err(FrameQlError::LexError {
                    position: i,
                    message: format!("unexpected character '{other}'"),
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_simple_select() {
        let tokens = tokenize("SELECT * FROM taipei").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("SELECT".into()),
                Token::Star,
                Token::Ident("FROM".into()),
                Token::Ident("taipei".into()),
            ]
        );
    }

    #[test]
    fn lex_operators_and_numbers() {
        let tokens =
            tokenize("a >= 17.5 AND b <> 3 OR c != 1 AND d <= 2 AND e < 5 AND f > 0.1").unwrap();
        assert!(tokens.contains(&Token::GtEq));
        assert!(tokens.contains(&Token::Number(17.5)));
        assert_eq!(tokens.iter().filter(|t| **t == Token::NotEq).count(), 2);
        assert!(tokens.contains(&Token::LtEq));
        assert!(tokens.contains(&Token::Lt));
        assert!(tokens.contains(&Token::Gt));
    }

    #[test]
    fn lex_string_literals() {
        let tokens = tokenize("class = 'car'").unwrap();
        assert_eq!(
            tokens,
            vec![Token::Ident("class".into()), Token::Eq, Token::StringLit("car".into())]
        );
    }

    #[test]
    fn lex_percent_and_parens() {
        let tokens = tokenize("CONFIDENCE 95% COUNT(*)").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("CONFIDENCE".into()),
                Token::Number(95.0),
                Token::Percent,
                Token::Ident("COUNT".into()),
                Token::LParen,
                Token::Star,
                Token::RParen,
            ]
        );
    }

    #[test]
    fn lex_hyphenated_stream_names() {
        let tokens = tokenize("FROM night-street").unwrap();
        assert_eq!(tokens[1], Token::Ident("night-street".into()));
    }

    #[test]
    fn lex_errors() {
        assert!(matches!(tokenize("a = 'unterminated"), Err(FrameQlError::LexError { .. })));
        assert!(matches!(tokenize("a ! b"), Err(FrameQlError::LexError { .. })));
        assert!(matches!(tokenize("a = #"), Err(FrameQlError::LexError { .. })));
        assert!(matches!(tokenize("x = 1.2.3"), Err(FrameQlError::LexError { .. })));
    }

    #[test]
    fn spanned_tokens_record_byte_positions() {
        let spanned = tokenize_spanned("SELECT *  FROM night-street").unwrap();
        assert_eq!(
            spanned,
            vec![
                (Token::Ident("SELECT".into()), 0),
                (Token::Star, 7),
                (Token::Ident("FROM".into()), 10),
                (Token::Ident("night-street".into()), 15),
            ]
        );
        // The unspanned view is exactly the spanned one with positions dropped.
        let plain = tokenize("SELECT *  FROM night-street").unwrap();
        assert_eq!(plain, spanned.into_iter().map(|(t, _)| t).collect::<Vec<_>>());
    }

    #[test]
    fn keyword_helper_uppercases() {
        let t = Token::Ident("select".into());
        assert_eq!(t.as_keyword(), Some("SELECT".into()));
        assert_eq!(Token::Star.as_keyword(), None);
    }
}
