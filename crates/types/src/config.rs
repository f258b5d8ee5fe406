//! The [`config!`](crate::config!) table: each layer config of the stack
//! (freshness, latency, maintenance, client) is declared once — one row
//! per knob giving its doc, its type and its default — and the struct, its
//! `Default`, and its range-validated builder are generated from that row.

/// Declares a config struct, its `Default` and its range-validated builder
/// from one table.
///
/// Each row is `name: Type = default`, after the field's docs. A row may
/// name the setter's argument type with `as` (`name: String as impl
/// Into<String> = …`); the setter then stores `v.into()`. Every field is
/// `pub`. The declaring module writes one private
/// `fn validate(&self) -> Result<(), String>` on the struct; `build`
/// returns its first error, or the config.
///
/// ```
/// dharma_types::config! {
///     /// Knobs of a toy layer.
///     #[derive(Clone, Debug)]
///     pub struct ToyConfig => ToyConfigBuilder {
///         /// How many.
///         count: usize = 3,
///         /// Its label.
///         label: String as impl Into<String> = "toy".into(),
///     }
/// }
///
/// impl ToyConfig {
///     fn validate(&self) -> Result<(), String> {
///         if self.count == 0 {
///             return Err("count must be positive".into());
///         }
///         Ok(())
///     }
/// }
///
/// assert_eq!(ToyConfig::default().count, 3);
/// let toy = ToyConfig::builder().count(5).label("x").build().unwrap();
/// assert_eq!((toy.count, toy.label.as_str()), (5, "x"));
/// assert_eq!(ToyConfig::builder().count(0).build().unwrap_err(), "count must be positive");
/// ```
#[macro_export]
macro_rules! config {
    (@setter $name:ident $field:ident: $ty:ty as $arg:ty) => {
        #[doc = ::core::concat!("See [`", ::core::stringify!($name), "::", ::core::stringify!($field), "`].")]
        pub fn $field(mut self, v: $arg) -> Self {
            self.cfg.$field = v.into();
            self
        }
    };
    (@setter $name:ident $field:ident: $ty:ty) => {
        #[doc = ::core::concat!("See [`", ::core::stringify!($name), "::", ::core::stringify!($field), "`].")]
        pub fn $field(mut self, v: $ty) -> Self {
            self.cfg.$field = v;
            self
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident => $builder:ident {
            $($(#[$doc:meta])* $field:ident: $ty:ty $(as $arg:ty)? = $default:expr),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl ::core::default::Default for $name {
            fn default() -> Self {
                $name { $($field: $default,)* }
            }
        }

        impl $name {
            #[doc = ::core::concat!("A range-validated builder starting from [`", ::core::stringify!($name), "::default()`].")]
            $vis fn builder() -> $builder {
                $builder { cfg: ::core::default::Default::default() }
            }
        }

        #[doc = ::core::concat!("Builder for [`", ::core::stringify!($name), "`] with validated ranges ([`", ::core::stringify!($name), "::builder()`]).")]
        #[derive(Clone, Debug)]
        $vis struct $builder {
            cfg: $name,
        }

        impl $builder {
            $($crate::config!(@setter $name $field: $ty $(as $arg)?);)*

            /// Validates ranges and produces the config. Errors name the bad knob.
            $vis fn build(self) -> ::core::result::Result<$name, ::std::string::String> {
                self.cfg.validate()?;
                ::core::result::Result::Ok(self.cfg)
            }
        }
    };
}
