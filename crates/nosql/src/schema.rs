//! Table definitions and the bind step: which column a name means, whether
//! a literal is legal there, and what key it encodes to.
//!
//! Every statement takes these decisions here, once, before it touches
//! storage; the write path, the planner and the operators below trust the
//! result (DESIGN.md §5g, §5h).

use crate::error::{NosqlError, Result};
use crate::types::{CqlType, CqlValue, ValueRef};

/// One column of a column family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: CqlType,
}

/// A column family (table) definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Owning keyspace.
    pub keyspace: String,
    /// Table name.
    pub name: String,
    /// Columns, in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Index into `columns` of the partition-key column.
    pub primary_key: usize,
    /// Names of columns with secondary indexes.
    pub indexed_columns: Vec<String>,
    /// `keyspace.name`: the table's key in the manifest and the WAL.
    qualified: String,
}

impl TableDef {
    /// Creates a definition, validating names and the primary key.
    pub fn new(
        keyspace: &str,
        name: &str,
        columns: Vec<ColumnDef>,
        primary_key: &str,
    ) -> Result<TableDef> {
        if columns.is_empty() {
            return Err(NosqlError::Parse(format!(
                "table {name} must have at least one column"
            )));
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(NosqlError::Parse(format!(
                    "duplicate column {:?} in table {name}",
                    c.name
                )));
            }
        }
        let mut def = TableDef {
            keyspace: keyspace.to_string(),
            name: name.to_string(),
            columns,
            primary_key: 0,
            indexed_columns: Vec::new(),
            qualified: format!("{keyspace}.{name}"),
        };
        def.primary_key = def.column(primary_key)?;
        if def.pk_column().ty == CqlType::IntSet {
            return Err(NosqlError::Parse(format!(
                "set<int> column {primary_key:?} cannot be the primary key"
            )));
        }
        Ok(def)
    }

    /// Fully qualified `keyspace.table` name.
    pub fn qualified_name(&self) -> &str {
        &self.qualified
    }

    /// Index of a column by name, or the typed error every statement
    /// answers for a name the table does not have.
    pub fn column(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| NosqlError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// The primary key column.
    pub fn pk_column(&self) -> &ColumnDef {
        &self.columns[self.primary_key]
    }

    /// Whether `column` has a secondary index.
    pub fn is_indexed(&self, column: &str) -> bool {
        self.indexed_columns.iter().any(|c| c == column)
    }

    /// Checks a value against the declared type of column `column`
    /// (`null` is legal everywhere); a set's elements must ascend, each
    /// once.
    pub fn check<'v>(&self, column: usize, value: impl Into<ValueRef<'v>>) -> Result<()> {
        let def = &self.columns[column];
        let found = match value.into() {
            ValueRef::IntSet(ids) if !ids.windows(2).all(|w| w[0] < w[1]) => "unordered set<int>",
            value => match value.ty() {
                Some(ty) if ty != def.ty => ty.name(),
                _ => return Ok(()),
            },
        };
        Err(NosqlError::TypeMismatch {
            column: def.name.clone(),
            expected: def.ty.name().to_string(),
            found: found.to_string(),
        })
    }

    /// The order-preserving key a literal encodes to in key column
    /// `column` (the primary key or an indexed column), checked against
    /// the column's type first. `None` for `null`, which equals no stored
    /// key. Everything below a statement's bind step handles key bytes
    /// from here, never an unchecked [`CqlValue::encode_key`].
    pub fn encode_key(&self, column: usize, value: &CqlValue) -> Result<Option<Vec<u8>>> {
        self.check(column, value)?;
        match value {
            CqlValue::Null => Ok(None),
            CqlValue::IntSet(_) => Err(NosqlError::Unsupported(format!(
                "set<int> column {:?} cannot be a key",
                self.columns[column].name
            ))),
            scalar => Ok(Some(scalar.encode_key())),
        }
    }

    /// The encoded primary key a write addresses: a `null` key is a typed
    /// error, since no row may be stored under it.
    pub fn write_key(&self, value: &CqlValue) -> Result<Vec<u8>> {
        self.encode_key(self.primary_key, value)?
            .ok_or_else(|| NosqlError::MissingPrimaryKey(self.pk_column().name.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef {
                name: "id".into(),
                ty: CqlType::Int,
            },
            ColumnDef {
                name: "key".into(),
                ty: CqlType::Text,
            },
            ColumnDef {
                name: "children".into(),
                ty: CqlType::IntSet,
            },
        ]
    }

    #[test]
    fn table_def_basics() {
        let def = TableDef::new("ks", "cells", cols(), "id").unwrap();
        assert_eq!(def.qualified_name(), "ks.cells");
        assert_eq!(def.primary_key, 0);
        assert_eq!(def.pk_column().name, "id");
        assert!(!def.is_indexed("key"));
    }

    #[test]
    fn table_def_rejections() {
        assert!(matches!(
            TableDef::new("ks", "t", vec![], "id"),
            Err(NosqlError::Parse(_))
        ));
        assert!(matches!(
            TableDef::new("ks", "t", cols(), "nope"),
            Err(NosqlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            TableDef::new("ks", "t", cols(), "children"),
            Err(NosqlError::Parse(_))
        ));
        let mut dup = cols();
        dup.push(ColumnDef {
            name: "id".into(),
            ty: CqlType::Int,
        });
        assert!(matches!(
            TableDef::new("ks", "t", dup, "id"),
            Err(NosqlError::Parse(_))
        ));
    }

    #[test]
    fn literals_are_bound_against_the_declared_type() {
        let def = TableDef::new("ks", "cells", cols(), "id").unwrap();
        assert_eq!(def.column("key").unwrap(), 1);
        assert!(matches!(
            def.column("zzz"),
            Err(NosqlError::UnknownColumn { .. })
        ));
        assert!(def.check(1, &CqlValue::Text("a".into())).is_ok());
        assert!(def.check(1, &CqlValue::Null).is_ok());
        assert!(matches!(
            def.check(1, &CqlValue::Int(1)),
            Err(NosqlError::TypeMismatch { .. })
        ));
        // A key literal is checked, then encoded; null encodes to no key.
        assert_eq!(
            def.encode_key(0, &CqlValue::Int(7)).unwrap(),
            Some(CqlValue::Int(7).encode_key())
        );
        assert_eq!(def.encode_key(0, &CqlValue::Null).unwrap(), None);
        for bad in [CqlValue::Text("7".into()), CqlValue::int_set([7])] {
            assert!(matches!(
                def.encode_key(0, &bad),
                Err(NosqlError::TypeMismatch { .. })
            ));
            assert!(matches!(
                def.write_key(&bad),
                Err(NosqlError::TypeMismatch { .. })
            ));
        }
        // A set is never a key, even where the column's type admits it.
        assert!(matches!(
            def.encode_key(2, &CqlValue::int_set([7])),
            Err(NosqlError::Unsupported(_))
        ));
        assert!(matches!(
            def.write_key(&CqlValue::Null),
            Err(NosqlError::MissingPrimaryKey(_))
        ));
    }
}
